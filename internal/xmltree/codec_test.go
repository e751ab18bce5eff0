package xmltree_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/xmltree"
)

// codecDocs are the documents the codec costs are measured on: a full
// booking record as the durable ingest path journals it, the Fig. 10
// log:answers structure, and a travel event as clients post it.
var codecDocs = []struct{ name, src string }{
	{"booking", `<travel:booking xmlns:travel="http://www.semwebtech.org/domains/2006/travel" person="John Doe" from="Munich" to="Paris" ref="17">` +
		`<travel:passenger name="John Doe" seat="12C"/>` +
		`<travel:leg flight="LH123" from="Munich" to="Frankfurt" date="2006-03-07"/>` +
		`<travel:leg flight="LH456" from="Frankfurt" to="Paris" date="2006-03-07"/>` +
		`<travel:payment method="card" amount="312.50" currency="EUR"/>` +
		`<travel:note>booked through the web front end, e-ticket, no special assistance requested</travel:note>` +
		`</travel:booking>`},
	{"fig10-answers", `<log:answers xmlns:log="http://www.semwebtech.org/languages/2006/logic-ml">
  <log:answer>
    <log:variable name="Avail" type="string">Opel Astra</log:variable>
    <log:variable name="Class" type="string">B</log:variable>
    <log:variable name="Dest" type="string">Paris</log:variable>
  </log:answer>
  <log:answer>
    <log:variable name="Avail" type="string">Renault Espace</log:variable>
    <log:variable name="Class" type="string">D</log:variable>
    <log:variable name="Dest" type="string">Paris</log:variable>
  </log:answer>
</log:answers>`},
	{"travel-event", `<travel:booking xmlns:travel="http://www.semwebtech.org/domains/2006/travel" person="John Doe" from="Munich" to="Paris"/>`},
}

// TestCodecAllocs gates the codec's allocations against the encoding/xml
// reference on the same documents in the same run: reading and writing
// the booking record and the Fig. 10 answers must each allocate at most
// 60 % of what the reference does.
func TestCodecAllocs(t *testing.T) {
	for _, d := range codecDocs[:2] {
		doc := xmltree.MustParse(d.src)
		gate := func(what string, got, ref float64) {
			t.Logf("%s %s: %.0f allocs, reference %.0f", d.name, what, got, ref)
			if got > 0.6*ref {
				t.Errorf("%s %s allocates %.0f times, more than 60 %% of the reference's %.0f", d.name, what, got, ref)
			}
		}
		gate("parse",
			testing.AllocsPerRun(100, func() { _, _ = xmltree.ParseString(d.src) }),
			testing.AllocsPerRun(100, func() { _, _ = xmltree.ReferenceParseString(d.src) }))
		gate("string",
			testing.AllocsPerRun(100, func() { _ = doc.String() }),
			testing.AllocsPerRun(100, func() { _ = xmltree.ReferenceString(doc) }))
	}
}

// TestCodecCostIndependentOfDeclarations: reading and writing an element
// costs the same however many namespace declarations are in scope. A root
// with 2 000 prefix declarations and 10⁵ children is timed against the
// same document whose root carries 2 000 plain attributes instead; a
// lookup that scanned the declarations makes the first cost tens of times
// the second.
func TestCodecCostIndependentOfDeclarations(t *testing.T) {
	const attrs, kids = 2_000, 100_000
	doc := func(attr string) string {
		var b strings.Builder
		b.WriteString(`<a0:r xmlns:a0="u"`)
		for i := 1; i < attrs; i++ {
			fmt.Fprintf(&b, ` %s%d="u%d"`, attr, i, i)
		}
		b.WriteString(">" + strings.Repeat(`<a0:x/><y/>`, kids/2) + "</a0:r>")
		return b.String()
	}
	// fastest returns the least of three timings of f.
	fastest := func(f func()) time.Duration {
		best := time.Duration(1 << 62)
		for i := 0; i < 3; i++ {
			start := time.Now()
			f()
			best = min(best, time.Since(start))
		}
		return best
	}
	cost := func(src string) (parse, write time.Duration) {
		var n *xmltree.Node
		parse = fastest(func() {
			var err error
			if n, err = xmltree.ParseString(src); err != nil {
				t.Fatal(err)
			}
		})
		return parse, fastest(func() { sink = n.String() })
	}
	declParse, declWrite := cost(doc("xmlns:a"))
	plainParse, plainWrite := cost(doc("bbbbbbb"))
	t.Logf("parse %v vs %v, write %v vs %v", declParse, plainParse, declWrite, plainWrite)
	if declParse > 8*plainParse {
		t.Errorf("parse under %d declarations took %v, plain attributes %v", attrs, declParse, plainParse)
	}
	if declWrite > 8*plainWrite {
		t.Errorf("write under %d declarations took %v, plain attributes %v", attrs, declWrite, plainWrite)
	}
}

var sink any

func BenchmarkParse(b *testing.B) {
	for _, d := range codecDocs {
		b.Run(d.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				doc, err := xmltree.Parse(strings.NewReader(d.src))
				if err != nil {
					b.Fatal(err)
				}
				sink = doc
			}
		})
		b.Run("reference-"+d.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				doc, err := xmltree.ReferenceParseString(d.src)
				if err != nil {
					b.Fatal(err)
				}
				sink = doc
			}
		})
	}
}

func BenchmarkString(b *testing.B) {
	for _, d := range codecDocs {
		doc := xmltree.MustParse(d.src)
		b.Run(d.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sink = doc.String()
			}
		})
		b.Run("reference-"+d.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sink = xmltree.ReferenceString(doc)
			}
		})
	}
}
