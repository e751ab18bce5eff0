package xmltree

// The reference codec, for the external FuzzParse and TestCodecAllocs.
var (
	ReferenceParseString = refParseString
	ReferenceString      = refString
)

// NewComment returns a comment node.
func NewComment(s string) *Node { return &Node{Kind: CommentNode, Text: s} }
