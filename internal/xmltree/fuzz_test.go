package xmltree_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/domain/travel"
	"repro/internal/xmltree"
)

// FuzzParse drives the XML reader every network and disk input goes
// through (POST /events and /engine/rules bodies, protocol messages,
// journal records). Parsing must not panic, and an accepted document must
// survive serialization: parse → String → parse gives an equal tree.
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
	f.Fuzz(func(t *testing.T, src string) {
		doc, err := xmltree.ParseString(src)
		if err != nil {
			return
		}
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
