package xmltree

// The reference codec, for the external FuzzParse and TestCodecAllocs.
var (
	ReferenceParseString = refParseString
	ReferenceString      = refString
)
