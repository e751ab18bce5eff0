package services

// The built-in event languages, for the external tests to host with their
// compiles counted.
var (
	AtomicEvents = atomicEvents
	SnoopEvents  = snoopEvents
)
