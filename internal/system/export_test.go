package system

// ParseEventDocs exposes the POST /events body reader to the external
// test package, whose fuzz target seeds it from the figure replays.
var ParseEventDocs = parseEventDocs
