// Package xmltree provides a namespace-aware XML document model used
// throughout the ECA framework: rule documents, protocol messages, events,
// query results and bound XML fragments are all represented as *Node trees.
//
// The model is deliberately small: a Node is a document, element, text,
// comment or processing instruction. Element and attribute names carry the
// resolved namespace URI (not the prefix); serialization re-derives prefixes
// from in-scope xmlns declarations, synthesizing them where necessary, so
// trees can be built programmatically without thinking about prefixes.
package xmltree

import (
	"fmt"
	"strings"
)

// Kind discriminates the node variants of the document model.
type Kind int

// The node kinds of the document model.
const (
	// DocumentNode is the root of a parsed document; its children are the
	// top-level nodes (comments, processing instructions and exactly one
	// element for well-formed documents).
	DocumentNode Kind = iota
	// ElementNode is an XML element with a name, attributes and children.
	ElementNode
	// TextNode is character data; Text holds the unescaped content.
	TextNode
	// CommentNode is an XML comment; Text holds the comment body.
	CommentNode
	// ProcInstNode is a processing instruction; Name.Local holds the
	// target and Text the instruction body.
	ProcInstNode
	// AttrNode is a synthetic attribute node as used by XPath's attribute
	// axis: Name is the attribute name, Text its value and Parent the
	// owning element. Attribute nodes are created on demand (see
	// Node.AttrNodes) and never appear in Children.
	AttrNode
)

// String returns a short human-readable name for the kind.
func (k Kind) String() string {
	switch k {
	case DocumentNode:
		return "document"
	case ElementNode:
		return "element"
	case TextNode:
		return "text"
	case CommentNode:
		return "comment"
	case ProcInstNode:
		return "procinst"
	case AttrNode:
		return "attribute"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Name identifies an element or attribute. Space is the resolved namespace
// URI ("" for no namespace); Local is the local part of the name.
type Name struct {
	Space string
	Local string
}

// String renders the name in Clark notation ({uri}local) when namespaced.
func (n Name) String() string {
	if n.Space == "" {
		return n.Local
	}
	return "{" + n.Space + "}" + n.Local
}

// Attr is a single attribute. Namespace declarations (xmlns and xmlns:p)
// appear in the attribute list with Space "xmlns" for prefixed declarations
// and the name {,"xmlns"} for default-namespace declarations, mirroring the
// encoding/xml token representation.
type Attr struct {
	Name  Name
	Value string
}

// IsNamespaceDecl reports whether the attribute is an xmlns declaration.
func (a Attr) IsNamespaceDecl() bool {
	return a.Name.Space == "xmlns" || (a.Name.Space == "" && a.Name.Local == "xmlns")
}

// Node is one node of the document model. Fields are used according to Kind;
// see the Kind constants. Parent is maintained by the parse and mutation
// helpers in this package and is nil for roots.
type Node struct {
	Kind     Kind
	Name     Name
	Attrs    []Attr
	Text     string
	Children []*Node
	Parent   *Node
}

// NewDocument returns an empty document node.
func NewDocument() *Node { return &Node{Kind: DocumentNode} }

// NewElement returns an element node with the given namespace URI and local
// name and the given children appended (attribute-free; use SetAttr).
func NewElement(space, local string, children ...*Node) *Node {
	e := &Node{Kind: ElementNode, Name: Name{Space: space, Local: local}}
	for _, c := range children {
		e.Append(c)
	}
	return e
}

// NewText returns a text node with the given character data.
func NewText(s string) *Node { return &Node{Kind: TextNode, Text: s} }

// Append adds c as the last child of n and sets its parent pointer.
// It returns n to allow chaining during tree construction.
func (n *Node) Append(c *Node) *Node {
	c.Parent = n
	n.Children = append(n.Children, c)
	return n
}

// AppendText appends a text node with the given content and returns n.
func (n *Node) AppendText(s string) *Node { return n.Append(NewText(s)) }

// SetAttr sets (or replaces) an attribute on an element and returns n.
func (n *Node) SetAttr(space, local, value string) *Node {
	name := Name{Space: space, Local: local}
	for i := range n.Attrs {
		if n.Attrs[i].Name == name {
			n.Attrs[i].Value = value
			return n
		}
	}
	n.Attrs = append(n.Attrs, Attr{Name: name, Value: value})
	return n
}

// Attr returns the value of the named attribute (empty Space matches
// unprefixed attributes) and whether it is present.
func (n *Node) Attr(space, local string) (string, bool) {
	for _, a := range n.Attrs {
		if a.Name.Space == space && a.Name.Local == local {
			return a.Value, true
		}
	}
	return "", false
}

// AttrValue returns the value of the named attribute or "" if absent.
func (n *Node) AttrValue(space, local string) string {
	v, _ := n.Attr(space, local)
	return v
}

// AttrNodes materializes the element's non-namespace attributes as synthetic
// AttrNode nodes whose Parent is n. Repeated calls create fresh nodes.
func (n *Node) AttrNodes() []*Node {
	k := 0
	for _, a := range n.Attrs {
		if !a.IsNamespaceDecl() {
			k++
		}
	}
	if k == 0 {
		return nil
	}
	nodes, out := make([]Node, 0, k), make([]*Node, 0, k)
	for _, a := range n.Attrs {
		if !a.IsNamespaceDecl() {
			nodes = append(nodes, Node{Kind: AttrNode, Name: a.Name, Text: a.Value, Parent: n})
			out = append(out, &nodes[len(nodes)-1])
		}
	}
	return out
}

// Root returns the first element child of a document node, or n itself if n
// is already an element, or nil otherwise.
func (n *Node) Root() *Node {
	if n == nil {
		return nil
	}
	if n.Kind == ElementNode {
		return n
	}
	if n.Kind == DocumentNode {
		for _, c := range n.Children {
			if c.Kind == ElementNode {
				return c
			}
		}
	}
	return nil
}

// ChildElements returns the element children of n in document order.
func (n *Node) ChildElements() []*Node {
	var out []*Node
	for _, c := range n.Children {
		if c.Kind == ElementNode {
			out = append(out, c)
		}
	}
	return out
}

// FirstChildElement returns the first child element with the given name, or
// nil. An empty space matches any namespace when local is also matched.
func (n *Node) FirstChildElement(space, local string) *Node {
	for _, c := range n.Children {
		if c.Kind == ElementNode && c.Name.Local == local && (space == "*" || c.Name.Space == space) {
			return c
		}
	}
	return nil
}

// ChildElementsNamed returns all child elements with the given name.
// A space of "*" matches any namespace.
func (n *Node) ChildElementsNamed(space, local string) []*Node {
	var out []*Node
	for _, c := range n.Children {
		if c.Kind == ElementNode && c.Name.Local == local && (space == "*" || c.Name.Space == space) {
			out = append(out, c)
		}
	}
	return out
}

// Descendants calls f for every descendant-or-self element of n in document
// order, stopping early if f returns false.
func (n *Node) Descendants(f func(*Node) bool) {
	var walk func(*Node) bool
	walk = func(x *Node) bool {
		if x.Kind == ElementNode {
			if !f(x) {
				return false
			}
		}
		for _, c := range x.Children {
			if !walk(c) {
				return false
			}
		}
		return true
	}
	walk(n)
}

// TextContent returns the concatenation of all descendant text nodes,
// the string-value of the node in XPath terms.
func (n *Node) TextContent() string {
	if n == nil {
		return ""
	}
	if n.Kind == TextNode || n.Kind == AttrNode {
		return n.Text
	}
	if len(n.Children) == 1 && n.Children[0].Kind == TextNode {
		return n.Children[0].Text
	}
	var b strings.Builder
	n.writeText(&b)
	return b.String()
}

// writeText writes the text of n's descendant text nodes to b, in document
// order.
func (n *Node) writeText(b *strings.Builder) {
	for _, c := range n.Children {
		if c.Kind == TextNode {
			b.WriteString(c.Text)
		} else {
			c.writeText(b)
		}
	}
}

// Clone returns a deep copy of n with a nil parent.
func (n *Node) Clone() *Node {
	if n == nil {
		return nil
	}
	c := &Node{Kind: n.Kind, Name: n.Name, Text: n.Text}
	if n.Attrs != nil {
		c.Attrs = make([]Attr, len(n.Attrs))
		copy(c.Attrs, n.Attrs)
	}
	for _, ch := range n.Children {
		c.Append(ch.Clone())
	}
	return c
}

// Equal reports deep structural equality of two trees: same kinds, resolved
// names, attribute sets (order-insensitive, xmlns declarations ignored),
// text content, and children in order. Prefix spelling never matters because
// names hold resolved URIs.
func Equal(a, b *Node) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Kind != b.Kind || a.Name != b.Name || a.Text != b.Text {
		return false
	}
	if !attrsEqual(a.Attrs, b.Attrs) {
		return false
	}
	if len(a.Children) != len(b.Children) {
		return false
	}
	for i := range a.Children {
		if !Equal(a.Children[i], b.Children[i]) {
			return false
		}
	}
	return true
}

// EqualIgnoringWhitespace is like Equal but skips whitespace-only text nodes
// on both sides, so indented and compact serializations compare equal.
func EqualIgnoringWhitespace(a, b *Node) bool {
	return Equal(stripWS(a), stripWS(b))
}

func stripWS(n *Node) *Node {
	if n == nil {
		return nil
	}
	c := &Node{Kind: n.Kind, Name: n.Name, Text: n.Text}
	if n.Attrs != nil {
		c.Attrs = make([]Attr, len(n.Attrs))
		copy(c.Attrs, n.Attrs)
	}
	for _, ch := range n.Children {
		if ch.Kind == TextNode && strings.TrimSpace(ch.Text) == "" {
			continue
		}
		c.Append(stripWS(ch))
	}
	return c
}

func attrsEqual(a, b []Attr) bool {
	am := map[Name]string{}
	bm := map[Name]string{}
	for _, x := range a {
		if !x.IsNamespaceDecl() {
			am[x.Name] = x.Value
		}
	}
	for _, x := range b {
		if !x.IsNamespaceDecl() {
			bm[x.Name] = x.Value
		}
	}
	if len(am) != len(bm) {
		return false
	}
	for k, v := range am {
		if bm[k] != v {
			return false
		}
	}
	return true
}

// MustParse parses a document from a string and panics on error. It is
// intended for static documents in tests and examples.
func MustParse(s string) *Node {
	doc, err := ParseString(s)
	if err != nil {
		panic(err)
	}
	return doc
}

// Indent returns a copy of the tree re-indented for human display: element
// children are placed on their own lines with two-space indentation, and
// whitespace-only text nodes are normalized. Mixed content (elements with
// non-whitespace text children) is left untouched.
func Indent(n *Node) *Node {
	c := stripWS(n)
	indentInto(c, 0)
	return c
}

func indentInto(n *Node, depth int) {
	if n.Kind == DocumentNode {
		for _, c := range n.Children {
			indentInto(c, depth)
		}
		return
	}
	if n.Kind != ElementNode || len(n.Children) == 0 {
		return
	}
	for _, c := range n.Children {
		if c.Kind == TextNode {
			return // mixed content: leave as is
		}
	}
	var out []*Node
	pad := "\n" + strings.Repeat("  ", depth+1)
	for _, c := range n.Children {
		out = append(out, NewText(pad), c)
		indentInto(c, depth+1)
	}
	out = append(out, NewText("\n"+strings.Repeat("  ", depth)))
	n.Children = nil
	for _, c := range out {
		n.Append(c)
	}
}
