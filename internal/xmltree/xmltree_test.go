package xmltree

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestParseSimple(t *testing.T) {
	doc, err := ParseString(`<a><b x="1">hi</b><c/></a>`)
	if err != nil {
		t.Fatal(err)
	}
	root := doc.Root()
	if root.Name.Local != "a" {
		t.Fatalf("root = %v, want a", root.Name)
	}
	kids := root.ChildElements()
	if len(kids) != 2 {
		t.Fatalf("got %d child elements, want 2", len(kids))
	}
	if kids[0].Name.Local != "b" || kids[1].Name.Local != "c" {
		t.Fatalf("children = %v, %v", kids[0].Name, kids[1].Name)
	}
	if v, ok := kids[0].Attr("", "x"); !ok || v != "1" {
		t.Fatalf("attr x = %q, %v", v, ok)
	}
	if got := kids[0].TextContent(); got != "hi" {
		t.Fatalf("text = %q", got)
	}
}

func TestParseNamespaces(t *testing.T) {
	doc, err := ParseString(`<eca:rule xmlns:eca="http://example.org/eca" xmlns:q="http://example.org/q">
		<eca:event q:lang="xq"/>
	</eca:rule>`)
	if err != nil {
		t.Fatal(err)
	}
	root := doc.Root()
	if root.Name.Space != "http://example.org/eca" || root.Name.Local != "rule" {
		t.Fatalf("root name = %v", root.Name)
	}
	ev := root.FirstChildElement("http://example.org/eca", "event")
	if ev == nil {
		t.Fatal("event child not found")
	}
	if v := ev.AttrValue("http://example.org/q", "lang"); v != "xq" {
		t.Fatalf("q:lang = %q", v)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		``,
		`<a>`,
		`<a></b>`,
		`just text`,
		`<a></a></a>`,
	}
	for _, c := range cases {
		if _, err := ParseString(c); err == nil {
			t.Errorf("ParseString(%q): expected error", c)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	cases := []string{
		`<a><b x="1">hi</b><c/></a>`,
		`<e:r xmlns:e="u1"><e:x a="1"/><y xmlns="u2"><z/></y></e:r>`,
		`<a>mixed <b/> content</a>`,
		`<a><!--note--><b/></a>`,
		`<a x="&lt;&amp;&quot;"/>`,
		`<root xmlns="d"><child/></root>`,
		`<a>cr&#13;lf&#13;&#10;end</a>`, // a raw CR would come back as LF
	}
	for _, c := range cases {
		doc, err := ParseString(c)
		if err != nil {
			t.Fatalf("parse %q: %v", c, err)
		}
		out := doc.String()
		doc2, err := ParseString(out)
		if err != nil {
			t.Fatalf("reparse %q (from %q): %v", out, c, err)
		}
		if !Equal(doc, doc2) {
			t.Errorf("round trip changed tree:\n in: %s\nout: %s", c, out)
		}
	}
}

// TestSynthesizedDeclarationEscapesURI: a namespace URI holding markup
// characters must be escaped in the xmlns declaration the serializer
// writes for it (it was Go-quoted, which XML cannot read).
func TestSynthesizedDeclarationEscapesURI(t *testing.T) {
	for _, uri := range []string{`a&b`, `q"r`, `s<t>`, "tab\tnl\n"} {
		e := NewElement(uri, "e")
		e.SetAttr(uri, "at", "v")
		s := e.String()
		doc, err := ParseString(s)
		if err != nil {
			t.Fatalf("reparse %q: %v", s, err)
		}
		if !Equal(doc.Root(), e) {
			t.Errorf("namespace %q: %q came back as %s", uri, s, doc.Root())
		}
	}
}

func TestSerializeSynthesizedPrefix(t *testing.T) {
	// Build a tree programmatically with no xmlns declarations at all.
	e := NewElement("http://example.org/v", "msg")
	e.SetAttr("http://example.org/w", "id", "7")
	e.Append(NewElement("http://example.org/v", "body").AppendText("x"))
	s := e.String()
	doc, err := ParseString(s)
	if err != nil {
		t.Fatalf("reparse %q: %v", s, err)
	}
	r := doc.Root()
	if r.Name != (Name{"http://example.org/v", "msg"}) {
		t.Fatalf("name = %v in %q", r.Name, s)
	}
	if v := r.AttrValue("http://example.org/w", "id"); v != "7" {
		t.Fatalf("attr = %q in %q", v, s)
	}
	b := r.FirstChildElement("http://example.org/v", "body")
	if b == nil || b.TextContent() != "x" {
		t.Fatalf("body missing in %q", s)
	}
}

func TestEqualIgnoresPrefixSpelling(t *testing.T) {
	a := MustParse(`<p:x xmlns:p="u"><p:y/></p:x>`)
	b := MustParse(`<q:x xmlns:q="u"><q:y/></q:x>`)
	if !Equal(a.Root(), b.Root()) {
		t.Error("trees with different prefixes for same URI should be Equal")
	}
}

func TestEqualIgnoringWhitespace(t *testing.T) {
	a := MustParse("<a>\n  <b/>\n</a>")
	b := MustParse("<a><b/></a>")
	if Equal(a, b) {
		t.Error("Equal should see the whitespace difference")
	}
	if !EqualIgnoringWhitespace(a, b) {
		t.Error("EqualIgnoringWhitespace should ignore it")
	}
}

func TestEqualAttributeOrder(t *testing.T) {
	a := MustParse(`<a x="1" y="2"/>`)
	b := MustParse(`<a y="2" x="1"/>`)
	if !Equal(a, b) {
		t.Error("attribute order must not matter")
	}
	c := MustParse(`<a x="1" y="3"/>`)
	if Equal(a, c) {
		t.Error("different attribute values must not be Equal")
	}
}

func TestClone(t *testing.T) {
	orig := MustParse(`<a x="1"><b>t</b></a>`)
	c := orig.Clone()
	if !Equal(orig, c) {
		t.Fatal("clone differs")
	}
	c.Root().SetAttr("", "x", "2")
	c.Root().ChildElements()[0].Children[0].Text = "u"
	if orig.Root().AttrValue("", "x") != "1" {
		t.Error("mutating clone affected original attribute")
	}
	if orig.Root().TextContent() != "t" {
		t.Error("mutating clone affected original text")
	}
}

func TestTextContentNested(t *testing.T) {
	doc := MustParse(`<a>one<b>two<c>three</c></b>four</a>`)
	if got := doc.Root().TextContent(); got != "onetwothreefour" {
		t.Fatalf("TextContent = %q", got)
	}
}

func TestDescendants(t *testing.T) {
	doc := MustParse(`<a><b><c/></b><d/></a>`)
	var names []string
	doc.Descendants(func(n *Node) bool {
		names = append(names, n.Name.Local)
		return true
	})
	want := "a b c d"
	if got := strings.Join(names, " "); got != want {
		t.Fatalf("descendants = %q, want %q", got, want)
	}
	// Early stop.
	names = nil
	doc.Descendants(func(n *Node) bool {
		names = append(names, n.Name.Local)
		return n.Name.Local != "b"
	})
	if got := strings.Join(names, " "); got != "a b" {
		t.Fatalf("early-stopped descendants = %q", got)
	}
}

func TestIndent(t *testing.T) {
	doc := MustParse(`<a><b><c/></b></a>`)
	s := Indent(doc).String()
	if !strings.Contains(s, "\n  <b>") {
		t.Errorf("indent output lacks newline-indented child: %q", s)
	}
	re, err := ParseString(s)
	if err != nil {
		t.Fatalf("indented output does not reparse: %v", err)
	}
	if !EqualIgnoringWhitespace(doc, re) {
		t.Error("indenting changed logical content")
	}
}

func TestIndentPreservesMixedContent(t *testing.T) {
	doc := MustParse(`<a>hello <b>world</b></a>`)
	s := Indent(doc).String()
	re := MustParse(s)
	if got := re.Root().TextContent(); got != "hello world" {
		t.Fatalf("mixed content mangled: %q (serialized %q)", got, s)
	}
}

func TestAttrEscaping(t *testing.T) {
	e := NewElement("", "a")
	e.SetAttr("", "v", `x<y>&"z`)
	doc := MustParse(e.String())
	if got := doc.Root().AttrValue("", "v"); got != `x<y>&"z` {
		t.Fatalf("attr escaping round-trip = %q", got)
	}
}

func TestTextEscaping(t *testing.T) {
	e := NewElement("", "a").AppendText(`1 < 2 & 3 > 2`)
	doc := MustParse(e.String())
	if got := doc.Root().TextContent(); got != `1 < 2 & 3 > 2` {
		t.Fatalf("text escaping round-trip = %q", got)
	}
}

func TestDefaultNamespaceOverride(t *testing.T) {
	// An element in no namespace nested under a default namespace must be
	// serialized with an xmlns="" override.
	root := NewElement("u", "outer")
	root.SetAttr("", "xmlns", "u")
	root.Append(NewElement("", "plain"))
	doc := MustParse(root.String())
	p := doc.Root().ChildElements()[0]
	if p.Name.Space != "" {
		t.Fatalf("inner element acquired namespace %q in %q", p.Name.Space, root.String())
	}
}

// Property: any tree built from a restricted alphabet of names and texts
// round-trips through serialize+parse to an Equal tree.
func TestQuickRoundTrip(t *testing.T) {
	gen := func(seedBytes []byte) bool {
		n := buildArbitrary(seedBytes)
		s := NewDocument().Append(n).String()
		doc, err := ParseString(s)
		if err != nil {
			t.Logf("serialized: %q", s)
			return false
		}
		return Equal(n, doc.Root())
	}
	if err := quick.Check(gen, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// buildArbitrary deterministically grows a small element tree from a byte
// seed. Names come from a fixed alphabet so namespaces collide and nest.
func buildArbitrary(seed []byte) *Node {
	names := []Name{{"", "a"}, {"", "b"}, {"u1", "x"}, {"u2", "y"}, {"u1", "z"}}
	texts := []string{"", "t", "hello & <world>", "  ", "π"}
	i := 0
	next := func(n int) int {
		if len(seed) == 0 {
			return 0
		}
		v := int(seed[i%len(seed)])
		i++
		return v % n
	}
	var build func(depth int) *Node
	build = func(depth int) *Node {
		e := &Node{Kind: ElementNode, Name: names[next(len(names))]}
		if next(2) == 0 {
			e.SetAttr("", "k", texts[next(len(texts))])
		}
		if next(3) == 0 {
			e.SetAttr("u2", "m", "v")
		}
		kids := next(3)
		if depth > 3 {
			kids = 0
		}
		for j := 0; j < kids; j++ {
			if next(4) == 0 {
				// Avoid adjacent text nodes: they merge on reparse.
				lastIsText := len(e.Children) > 0 && e.Children[len(e.Children)-1].Kind == TextNode
				if tx := texts[next(len(texts))]; tx != "" && !lastIsText {
					e.AppendText(tx)
				}
			} else {
				e.Append(build(depth + 1))
			}
		}
		return e
	}
	return build(0)
}

// TestParseDepthBound: Parse and the reference reader accept documents
// nested MaxDepth deep and reject one element deeper, empty or not, without
// building the tree.
func TestParseDepthBound(t *testing.T) {
	for _, tc := range []struct {
		src string
		ok  bool
	}{
		{strings.Repeat("<a>", MaxDepth) + strings.Repeat("</a>", MaxDepth), true},
		{strings.Repeat("<a>", MaxDepth-1) + "<b/>" + strings.Repeat("</a>", MaxDepth-1), true},
		{strings.Repeat("<a>", MaxDepth+1) + strings.Repeat("</a>", MaxDepth+1), false},
		{strings.Repeat("<a>", MaxDepth) + "<b/>" + strings.Repeat("</a>", MaxDepth), false},
		{strings.Repeat("<a>", 1_000_000), false}, // unclosed, far past the bound
	} {
		_, err := ParseString(tc.src)
		_, refErr := refParseString(tc.src)
		if (err == nil) != tc.ok || (refErr == nil) != tc.ok {
			t.Errorf("%d bytes: Parse error %v, reference error %v, want accepted=%v", len(tc.src), err, refErr, tc.ok)
		}
		if !tc.ok && err != nil && !strings.Contains(err.Error(), "nested deeper than") {
			t.Errorf("%d bytes: error %q does not name the bound", len(tc.src), err)
		}
	}
}
