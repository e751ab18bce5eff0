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
	"encoding/xml"
	"fmt"
	"io"
	"sort"
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

// NewComment returns a comment node.
func NewComment(s string) *Node { return &Node{Kind: CommentNode, Text: s} }

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
	var out []*Node
	for _, a := range n.Attrs {
		if a.IsNamespaceDecl() {
			continue
		}
		out = append(out, &Node{Kind: AttrNode, Name: a.Name, Text: a.Value, Parent: n})
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
	var b strings.Builder
	var walk func(*Node)
	walk = func(x *Node) {
		if x.Kind == TextNode {
			b.WriteString(x.Text)
			return
		}
		for _, c := range x.Children {
			walk(c)
		}
	}
	walk(n)
	return b.String()
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

// Parse reads a complete XML document from r into a document node.
// Element and attribute namespaces are resolved to URIs; the original xmlns
// declarations are retained in the attribute lists.
func Parse(r io.Reader) (*Node, error) {
	dec := xml.NewDecoder(r)
	doc := NewDocument()
	cur := doc
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("xmltree: parse: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			e := &Node{Kind: ElementNode, Name: internName(t.Name.Space, t.Name.Local)}
			for _, a := range t.Attr {
				e.Attrs = append(e.Attrs, Attr{Name: internName(a.Name.Space, a.Name.Local), Value: a.Value})
			}
			cur.Append(e)
			cur = e
		case xml.EndElement:
			if cur.Parent == nil {
				return nil, fmt.Errorf("xmltree: parse: unbalanced end element </%s>", t.Name.Local)
			}
			cur = cur.Parent
		case xml.CharData:
			cur.Append(NewText(string(t)))
		case xml.Comment:
			cur.Append(NewComment(string(t)))
		case xml.ProcInst:
			cur.Append(&Node{Kind: ProcInstNode, Name: Name{Local: t.Target}, Text: string(t.Inst)})
		case xml.Directive:
			// DOCTYPE and similar directives are not part of the model.
		}
	}
	if cur != doc {
		return nil, fmt.Errorf("xmltree: parse: unexpected end of input inside <%s>", cur.Name.Local)
	}
	if doc.Root() == nil {
		return nil, fmt.Errorf("xmltree: parse: document has no root element")
	}
	return doc, nil
}

// ParseString parses a document from a string. See Parse.
func ParseString(s string) (*Node, error) { return Parse(strings.NewReader(s)) }

// MustParse parses a document from a string and panics on error. It is
// intended for static documents in tests and examples.
func MustParse(s string) *Node {
	doc, err := ParseString(s)
	if err != nil {
		panic(err)
	}
	return doc
}

// scope tracks in-scope namespace prefix declarations during serialization.
type scope struct {
	parent  *scope
	uriToPx map[string]string
	pxToURI map[string]string
	defNS   string
	hasDef  bool
	counter *int
}

func newScope() *scope {
	n := 0
	return &scope{uriToPx: map[string]string{}, pxToURI: map[string]string{}, counter: &n}
}

func (s *scope) child() *scope {
	return &scope{parent: s, uriToPx: map[string]string{}, pxToURI: map[string]string{}, counter: s.counter}
}

func (s *scope) lookupPrefix(uri string) (string, bool) {
	for sc := s; sc != nil; sc = sc.parent {
		if p, ok := sc.uriToPx[uri]; ok {
			// A nearer scope may have rebound the prefix to another URI.
			if u, ok2 := s.lookupURI(p); ok2 && u == uri {
				return p, true
			}
		}
	}
	return "", false
}

func (s *scope) lookupURI(prefix string) (string, bool) {
	for sc := s; sc != nil; sc = sc.parent {
		if u, ok := sc.pxToURI[prefix]; ok {
			return u, true
		}
	}
	return "", false
}

func (s *scope) defaultNS() string {
	for sc := s; sc != nil; sc = sc.parent {
		if sc.hasDef {
			return sc.defNS
		}
	}
	return ""
}

func (s *scope) declare(prefix, uri string) {
	s.uriToPx[uri] = prefix
	s.pxToURI[prefix] = uri
}

func (s *scope) fresh(uri string) string {
	for {
		*s.counter++
		p := fmt.Sprintf("ns%d", *s.counter)
		if _, taken := s.lookupURI(p); !taken {
			s.declare(p, uri)
			return p
		}
	}
}

// Write serializes the tree rooted at n to w as XML. Namespace prefixes are
// taken from xmlns declarations present in the attribute lists; names in
// namespaces with no in-scope declaration get synthesized ns1, ns2, …
// declarations on the element that first needs them.
func (n *Node) Write(w io.Writer) error {
	var b strings.Builder
	writeNode(&b, n, newScope())
	_, err := io.WriteString(w, b.String())
	return err
}

// String serializes the tree rooted at n to a string. Errors cannot occur
// when writing to an in-memory buffer, so none are returned.
func (n *Node) String() string {
	var b strings.Builder
	writeNode(&b, n, newScope())
	return b.String()
}

func writeNode(b *strings.Builder, n *Node, sc *scope) {
	switch n.Kind {
	case DocumentNode:
		for _, c := range n.Children {
			writeNode(b, c, sc)
		}
	case TextNode:
		escapeText(b, n.Text)
	case CommentNode:
		b.WriteString("<!--")
		b.WriteString(n.Text)
		b.WriteString("-->")
	case ProcInstNode:
		b.WriteString("<?")
		b.WriteString(n.Name.Local)
		if n.Text != "" {
			b.WriteString(" ")
			b.WriteString(n.Text)
		}
		b.WriteString("?>")
	case ElementNode:
		writeElement(b, n, sc)
	}
}

func writeElement(b *strings.Builder, n *Node, parent *scope) {
	sc := parent.child()
	// First pass: absorb explicit xmlns declarations.
	for _, a := range n.Attrs {
		if a.Name.Space == "xmlns" {
			sc.declare(a.Name.Local, a.Value)
		} else if a.Name.Space == "" && a.Name.Local == "xmlns" {
			sc.hasDef = true
			sc.defNS = a.Value
		}
	}
	// Determine extra declarations needed for the element and its attributes.
	type decl struct{ prefix, uri string }
	var extra []decl
	need := func(uri string, forAttr bool) string {
		if uri == "" {
			return ""
		}
		if !forAttr && sc.defaultNS() == uri {
			return ""
		}
		if p, ok := sc.lookupPrefix(uri); ok && p != "" {
			return p
		}
		p := sc.fresh(uri)
		extra = append(extra, decl{p, uri})
		return p
	}
	// Elements in no namespace under a default namespace need an override.
	if n.Name.Space == "" && sc.defaultNS() != "" {
		sc.hasDef = true
		sc.defNS = ""
		extra = append(extra, decl{"", ""})
	}
	ePrefix := need(n.Name.Space, false)

	b.WriteString("<")
	if ePrefix != "" {
		b.WriteString(ePrefix)
		b.WriteString(":")
	}
	b.WriteString(n.Name.Local)

	var attrs []string
	for _, a := range n.Attrs {
		var name string
		switch {
		case a.Name.Space == "xmlns":
			name = "xmlns:" + a.Name.Local
		case a.Name.Space == "" && a.Name.Local == "xmlns":
			name = "xmlns"
		case a.Name.Space == "":
			name = a.Name.Local
		default:
			name = need(a.Name.Space, true) + ":" + a.Name.Local
		}
		var v strings.Builder
		escapeAttr(&v, a.Value)
		attrs = append(attrs, name+`="`+v.String()+`"`)
	}
	var decls []string
	for _, d := range extra {
		var v strings.Builder
		escapeAttr(&v, d.uri)
		if d.prefix == "" {
			decls = append(decls, `xmlns="`+v.String()+`"`)
		} else {
			decls = append(decls, `xmlns:`+d.prefix+`="`+v.String()+`"`)
		}
	}
	sort.Strings(decls)
	for _, d := range decls {
		b.WriteString(" ")
		b.WriteString(d)
	}
	for _, a := range attrs {
		b.WriteString(" ")
		b.WriteString(a)
	}

	if len(n.Children) == 0 {
		b.WriteString("/>")
		return
	}
	b.WriteString(">")
	for _, c := range n.Children {
		writeNode(b, c, sc)
	}
	b.WriteString("</")
	if ePrefix != "" {
		b.WriteString(ePrefix)
		b.WriteString(":")
	}
	b.WriteString(n.Name.Local)
	b.WriteString(">")
}

// escapeText writes s with the markup-significant characters &, < and >
// replaced by entity references. Tabs and newlines pass through literally,
// unlike encoding/xml's EscapeText; a carriage return is escaped
// numerically, because a parser turns a literal one into a newline.
func escapeText(b *strings.Builder, s string) {
	for _, r := range s {
		switch r {
		case '&':
			b.WriteString("&amp;")
		case '<':
			b.WriteString("&lt;")
		case '>':
			b.WriteString("&gt;")
		case '\r':
			b.WriteString("&#xD;")
		default:
			b.WriteRune(r)
		}
	}
}

// escapeAttr writes s escaped for use inside a double-quoted attribute value.
// Tab, newline and carriage return are escaped numerically so they survive
// attribute-value normalization on reparse.
func escapeAttr(b *strings.Builder, s string) {
	for _, r := range s {
		switch r {
		case '&':
			b.WriteString("&amp;")
		case '<':
			b.WriteString("&lt;")
		case '>':
			b.WriteString("&gt;")
		case '"':
			b.WriteString("&quot;")
		case '\t':
			b.WriteString("&#x9;")
		case '\n':
			b.WriteString("&#xA;")
		case '\r':
			b.WriteString("&#xD;")
		default:
			b.WriteRune(r)
		}
	}
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
