package xmltree

// The reference codec: the encoding/xml token-loop reader and the
// scope-map writer this package used before its own reader and writer.
// FuzzParse and TestCodecAllocs hold Parse and String to them.

import (
	"encoding/xml"
	"fmt"
	"io"
	"sort"
	"strings"
)

// refParse reads a complete XML document from r into a document node.
// Element and attribute namespaces are resolved to URIs; the original xmlns
// declarations are retained in the attribute lists. Like Parse, it rejects
// elements nested deeper than MaxDepth, which encoding/xml itself does not.
func refParse(r io.Reader) (*Node, error) {
	dec := xml.NewDecoder(r)
	doc := NewDocument()
	cur := doc
	depth := 0
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
			if depth++; depth > MaxDepth {
				return nil, fmt.Errorf("xmltree: parse: element <%s> nested deeper than %d", t.Name.Local, MaxDepth)
			}
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
			depth--
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

// refParseString parses a document from a string. See refParse.
func refParseString(s string) (*Node, error) { return refParse(strings.NewReader(s)) }

// refScope tracks in-scope namespace prefix declarations during serialization.
type refScope struct {
	parent  *refScope
	uriToPx map[string]string
	pxToURI map[string]string
	defNS   string
	hasDef  bool
	counter *int
}

func newRefScope() *refScope {
	n := 0
	return &refScope{uriToPx: map[string]string{}, pxToURI: map[string]string{}, counter: &n}
}

func (s *refScope) child() *refScope {
	return &refScope{parent: s, uriToPx: map[string]string{}, pxToURI: map[string]string{}, counter: s.counter}
}

func (s *refScope) lookupPrefix(uri string) (string, bool) {
	for sc := s; sc != nil; sc = sc.parent {
		if p, ok := sc.uriToPx[uri]; ok {
			// A nearer refScope may have rebound the prefix to another URI.
			if u, ok2 := s.lookupURI(p); ok2 && u == uri {
				return p, true
			}
		}
	}
	return "", false
}

func (s *refScope) lookupURI(prefix string) (string, bool) {
	for sc := s; sc != nil; sc = sc.parent {
		if u, ok := sc.pxToURI[prefix]; ok {
			return u, true
		}
	}
	return "", false
}

func (s *refScope) defaultNS() string {
	for sc := s; sc != nil; sc = sc.parent {
		if sc.hasDef {
			return sc.defNS
		}
	}
	return ""
}

func (s *refScope) declare(prefix, uri string) {
	s.uriToPx[uri] = prefix
	s.pxToURI[prefix] = uri
}

func (s *refScope) fresh(uri string) string {
	for {
		*s.counter++
		p := fmt.Sprintf("ns%d", *s.counter)
		if _, taken := s.lookupURI(p); !taken {
			s.declare(p, uri)
			return p
		}
	}
}

// refString serializes the tree rooted at n to a string. Errors cannot occur
// when writing to an in-memory buffer, so none are returned.
func refString(n *Node) string {
	var b strings.Builder
	refWriteNode(&b, n, newRefScope())
	return b.String()
}

func refWriteNode(b *strings.Builder, n *Node, sc *refScope) {
	switch n.Kind {
	case DocumentNode:
		for _, c := range n.Children {
			refWriteNode(b, c, sc)
		}
	case TextNode:
		refEscapeText(b, n.Text)
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
		refWriteElement(b, n, sc)
	}
}

func refWriteElement(b *strings.Builder, n *Node, parent *refScope) {
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
		refEscapeAttr(&v, a.Value)
		attrs = append(attrs, name+`="`+v.String()+`"`)
	}
	var decls []string
	for _, d := range extra {
		var v strings.Builder
		refEscapeAttr(&v, d.uri)
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
		refWriteNode(b, c, sc)
	}
	b.WriteString("</")
	if ePrefix != "" {
		b.WriteString(ePrefix)
		b.WriteString(":")
	}
	b.WriteString(n.Name.Local)
	b.WriteString(">")
}

// refEscapeText writes s with the markup-significant characters &, < and >
// replaced by entity references. Tabs and newlines pass through literally,
// unlike encoding/xml's EscapeText; a carriage return is escaped
// numerically, because a parser turns a literal one into a newline.
func refEscapeText(b *strings.Builder, s string) {
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

// refEscapeAttr writes s escaped for use inside a double-quoted attribute value.
// Tab, newline and carriage return are escaped numerically so they survive
// attribute-value normalization on reparse.
func refEscapeAttr(b *strings.Builder, s string) {
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

// internName interns both parts of a name, as Parse does.
func internName(space, local string) Name {
	return Name{Space: internBytes([]byte(space)), Local: internBytes([]byte(local))}
}
