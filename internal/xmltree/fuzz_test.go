package xmltree_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/domain/travel"
	"repro/internal/xmltree"
)

// quirks are inputs on which encoding/xml's strict token loop, and so
// the reader, behaves in ways worth pinning: each is accepted or rejected
// exactly as the reference does, and accepted ones build the same tree.
var quirks = []string{
	`<p:a q:b="1"><p:c/></p:a>`,                       // unbound prefixes stay as the space
	`<a xml:lang="en" xmlns:xml="urn:x"><xml:b/></a>`, // xml: is always the XML namespace
	`<a x="1"y='2'z = "3"/>`,                          // no whitespace needed between attributes
	`<a x="1" x="2"/>`,                                // duplicates are not checked
	`<!DOCTYPE a [<!ENTITY e "x>y"> <!-- c > --> <!ELEMENT a ANY>]><a/><b/>tail`, // DOCTYPE skipped, several roots
	`<!>x><a/>`, `<!a <>><a/>`, `<!a '>' "<"><a/>`, `<!-- a --><!DOCTYPE x <!-- --->>><a/>`,
	"\ufeff<a/>",                       // a BOM is text
	"<a x='1\r\n2\r3'>l\r\nm\rn\r</a>", // CR and CRLF become LF
	"<a>&#13;\n&#xD;&#10;</a>",         // but not when written as references
	`<a>&#0;</a>`, `<a>&#xD800;</a>`, `<a>&#xDFFF;&#x10FFFF;</a>`, `<a>&#x110000;</a>`,
	`<a>&#xFFFE;</a>`, `<a>&#X41;</a>`, `<a>&#x41;&#65;&#00065;&#xaB;&#xAb;</a>`,
	`<a>&#;</a>`, `<a>&#x;</a>`, `<a>&amp</a>`, `<a>&unknown;</a>`, `<a>&lt;&gt;&amp;&apos;&quot;</a>`,
	`<a b="&#9;&#10;&#13;&lt;"/>`, `<a>&#99999999999999999999999;</a>`,
	`<?xml version="1.0" encoding="UTF-8"?><a/>`, `<?xml version="1.1"?><a/>`,
	`<?xml version='1.0' encoding='latin1'?><a/>`, `<?xml encoding="utf-8"?><a/>`,
	`<a><?xml version="2"?></a>`, `<?pi?><a><?t  body ?? ?></a>`, `<? pi?><a/>`,
	`<a:b:c/>`, `<:a :b="1"/>`, `<a: b:="1"/>`, `<a><b:/></a>`,
	`<a xmlns:p=""><p:b p:c="1"/></a>`, `<a xmlns:p="u" xmlns:p="v"><p:b/></a>`,
	`<a xmlns="u"><xmlns/><b xmlns=""/><xmlns:c/></a>`, `<a xmlns:xmlns="u"/>`,
	`<a><!----></a>`, `<a><!-- -- --></a>`, `<a><!---></a>`, `<a><!-x--></a>`,
	`<a>]]></a>`, `<a>]]&gt;]&#93;></a>`, `<a x="]]>"/>`, `<a><![CDATA[]]]]><![CDATA[>]]></a>`,
	`<![CDATA[]]><a/>`, `<a><![CDATA[]]></a>`, `<a><![CDATA[x`, `<a><![cdata[x]]></a>`,
	`<é ü="1" xmlns:ñ="u"><ñ:日本 a·b="2"/></é>`, `<·a/>`, `<a·/>`, `<a` + "\u0300" + `/>`, `<` + "\u0300" + `/>`,
	"<a x='\xff'>\xfe</a>", "<a\xff/>", "<a>\x01</a>", "<!--\xff\x01--><a/>",
	`<a></b>`, `<a></a:a>`, `<p:a></q:a>`, `</a>`, `<a>`, `<a/ >`, `< a/>`, `<a x/>`, `<a x=1/>`,
	`<a x="<"/>`, `<a x="1`, `<a x="1"`, `text only`, ``, `<a/>`,
	// Declarations shadowed and restored across and within elements.
	`<a xmlns:p="u" xmlns:q="u"><b xmlns:p="v"><p:c/><q:d q:x="1"/></b><p:e p:y="2"/></a>`,
	`<a xmlns:p="u" xmlns:q="u" xmlns:q="v"><p:b/><q:c/></a>`,
	`<a xmlns="u"><b xmlns="v"><c xmlns=""><d/></c><e/></b><f/></a>`,
	`<p:a xmlns:p="1"><p:a xmlns:p="2"><p:a xmlns:p="1"><q:b xmlns:q="2"/></p:a><p:c/></p:a><p:d/></p:a>`,
	manyDecls,
}

// manyDecls binds twenty prefixes on one element and rebinds half of them
// below it, alternating two URIs.
var manyDecls = func() string {
	var b strings.Builder
	b.WriteString("<r")
	for i := 0; i < 20; i++ {
		fmt.Fprintf(&b, ` xmlns:p%d="u%d"`, i, i%2)
	}
	b.WriteString("><p0:a")
	for i := 0; i < 20; i += 2 {
		fmt.Fprintf(&b, ` xmlns:p%d="u1"`, i)
	}
	b.WriteString("><p1:b/><p2:c p3:x=\"1\"/></p0:a><p19:d/></r>")
	return b.String()
}()

// nested is a document of depth elements, each inside the one before.
func nested(depth int) string {
	return strings.Repeat("<a>", depth) + strings.Repeat("</a>", depth)
}

// FuzzParse drives the XML reader every network and disk input goes
// through (POST /events and /engine/rules bodies, protocol messages,
// journal records) against the encoding/xml reference codec:
//
//   - Parse accepts exactly what the reference reader accepts and builds
//     the identical tree;
//   - String writes what the reference writer writes, for the parsed tree
//     and for trees grafted together or built across namespaces;
//   - an accepted document survives serialization: parse → String →
//     parse gives an equal tree.
func FuzzParse(f *testing.F) {
	// The Fig. 4 rule and the Figs. 5–11 messages of the figure replay.
	f.Add(travel.RuleXML("http://store/", "http://xq/"))
	run, err := bench.RunScenario()
	if err != nil {
		f.Fatal(err)
	}
	for _, tr := range run.Traces {
		f.Add(tr.Payload)
	}
	run.Cleanup()
	f.Add(`<?xml version="1.0"?><!-- c --><a xmlns="u" xmlns:p="v" p:x="1&#13;2"><b xmlns="">t<![CDATA[<x>]]>t</b><?pi data?></a>`)
	for _, q := range quirks {
		f.Add(q)
	}
	// The nesting bound, reached and passed.
	f.Add(nested(xmltree.MaxDepth))
	f.Add(nested(xmltree.MaxDepth + 1))
	f.Fuzz(func(t *testing.T, src string) {
		doc, err := xmltree.ParseString(src)
		ref, refErr := xmltree.ReferenceParseString(src)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("reader and reference disagree on %q\nreader    %v\nreference %v", src, err, refErr)
		}
		if err != nil {
			return
		}
		if d := diffTrees(ref, doc); d != "" {
			t.Fatalf("reader builds another tree than the reference for %q: %s", src, d)
		}
		sameString(t, doc)

		host := xmltree.MustParse(`<h:host xmlns:h="urn:h" xmlns="urn:d" xmlns:p="urn:p"><p:slot/></h:host>`)
		host.Root().FirstChildElement("urn:p", "slot").Append(doc.Root().Clone())
		sameString(t, host)
		under := doc.Root().Clone()
		under.Append(xmltree.MustParse(`<h:host xmlns:h="urn:h" xmlns="urn:d"><x/></h:host>`).Root())
		under.Append(doc.Root().Clone())
		sameString(t, under)
		sameString(t, crossNamespaces(doc))

		out := doc.String()
		again, err := xmltree.ParseString(out)
		if err != nil {
			t.Fatalf("serialized document does not parse: %v\n%s", err, out)
		}
		if a, b := dump(doc), dump(again); a != b {
			t.Fatalf("tree changed on the round trip\nbefore %s\nafter  %s\nwire   %s", a, b, out)
		}
	})
}

// sameString fails unless n serializes as the reference writer does.
func sameString(t *testing.T, n *xmltree.Node) {
	t.Helper()
	if got, want := n.String(), xmltree.ReferenceString(n); got != want {
		t.Fatalf("writer and reference disagree\nwriter    %q\nreference %q", got, want)
	}
}

// diffTrees describes the first difference between two trees, comparing
// kinds, names, attributes in order, text, text-node boundaries and parent
// links; "" means none.
func diffTrees(want, got *xmltree.Node) string {
	var walk func(path string, a, b *xmltree.Node) string
	walk = func(path string, a, b *xmltree.Node) string {
		switch {
		case a.Kind != b.Kind:
			return fmt.Sprintf("%s: kind %v, want %v", path, b.Kind, a.Kind)
		case a.Name != b.Name:
			return fmt.Sprintf("%s: name %#v, want %#v", path, b.Name, a.Name)
		case a.Text != b.Text:
			return fmt.Sprintf("%s: text %q, want %q", path, b.Text, a.Text)
		case !slices.Equal(a.Attrs, b.Attrs):
			return fmt.Sprintf("%s: attrs %q, want %q", path, b.Attrs, a.Attrs)
		case len(a.Children) != len(b.Children):
			return fmt.Sprintf("%s: %d children, want %d", path, len(b.Children), len(a.Children))
		}
		for i := range a.Children {
			p := fmt.Sprintf("%s/%d", path, i)
			if b.Children[i].Parent != b {
				return p + ": parent link broken"
			}
			if d := walk(p, a.Children[i], b.Children[i]); d != "" {
				return d
			}
		}
		return ""
	}
	return walk("", want, got)
}

// crossNamespaces rebuilds doc with NewElement and SetAttr, moving every
// element and attribute name into the namespace of another name in the
// document, so the writer has to reuse, synthesize and override
// declarations in ways the parsed tree does not ask for.
func crossNamespaces(doc *xmltree.Node) *xmltree.Node {
	spaces := []string{"", "urn:x"}
	doc.Descendants(func(e *xmltree.Node) bool {
		spaces = append(spaces, e.Name.Space)
		for _, a := range e.Attrs {
			if a.Name.Space != "xmlns" {
				spaces = append(spaces, a.Name.Space)
			}
		}
		return true
	})
	k := 0
	var build func(n *xmltree.Node) *xmltree.Node
	build = func(n *xmltree.Node) *xmltree.Node {
		k++
		e := xmltree.NewElement(spaces[k%len(spaces)], n.Name.Local)
		for i, a := range n.Attrs {
			space := spaces[(k+i+1)%len(spaces)]
			if a.IsNamespaceDecl() {
				space = a.Name.Space
			}
			e.SetAttr(space, a.Name.Local, a.Value)
		}
		for _, c := range n.Children {
			switch c.Kind {
			case xmltree.ElementNode:
				e.Append(build(c))
			case xmltree.TextNode:
				e.AppendText(c.Text)
			}
		}
		return e
	}
	return build(doc.Root())
}

// dump renders a tree for comparison: names with their namespace URIs,
// attributes other than namespace declarations (the serializer may add
// its own), and adjacent text nodes merged (CDATA sections come back as
// one text).
func dump(n *xmltree.Node) string {
	var b strings.Builder
	var walk func(n *xmltree.Node)
	walk = func(n *xmltree.Node) {
		switch n.Kind {
		case xmltree.ElementNode:
			fmt.Fprintf(&b, "<%s", n.Name)
			for _, a := range n.Attrs {
				if !a.IsNamespaceDecl() {
					fmt.Fprintf(&b, " %s=%q", a.Name, a.Value)
				}
			}
			b.WriteString(">")
		case xmltree.CommentNode:
			fmt.Fprintf(&b, "<!--%q-->", n.Text)
		case xmltree.ProcInstNode:
			fmt.Fprintf(&b, "<?%q %q?>", n.Name.Local, n.Text)
		}
		text := ""
		for _, c := range n.Children {
			if c.Kind == xmltree.TextNode {
				text += c.Text
				continue
			}
			if text != "" {
				fmt.Fprintf(&b, "%q", text)
				text = ""
			}
			walk(c)
		}
		if text != "" {
			fmt.Fprintf(&b, "%q", text)
		}
		if n.Kind == xmltree.ElementNode {
			b.WriteString("</>")
		}
	}
	walk(n)
	return b.String()
}
