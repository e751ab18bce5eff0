package rdf

import (
	"runtime/debug"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/bindings"
)

const sampleTurtle = `
@prefix eca: <http://www.semwebtech.org/ontology/2006/eca#> .
@prefix lang: <http://www.semwebtech.org/languages/2006/> .
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .

lang:snoop a eca:EventLanguage ;
    rdfs:label "SNOOP" ;
    eca:implementedBy lang:snoop-service .

lang:xquery a eca:QueryLanguage ;
    rdfs:label "XQuery" ;
    eca:implementedBy lang:saxon-service .

eca:EventLanguage rdfs:subClassOf eca:ComponentLanguage .
eca:QueryLanguage rdfs:subClassOf eca:ComponentLanguage .

lang:snoop-service eca:endpoint "http://localhost:8081/snoop" ;
    eca:frameworkAware true ;
    eca:priority 2 .
`

func loadSample(t *testing.T) *Graph {
	t.Helper()
	ts, err := ParseTurtleString(sampleTurtle)
	if err != nil {
		t.Fatal(err)
	}
	g := NewGraph()
	g.AddAll(ts)
	return g
}

func TestParseTurtleBasics(t *testing.T) {
	g := loadSample(t)
	if g.Len() != 11 {
		t.Errorf("triple count = %d, want 11\n%v", g.Len(), g.Triples())
	}
	snoop := NewIRI("http://www.semwebtech.org/languages/2006/snoop")
	typ := NewIRI(RDFType)
	evLang := NewIRI("http://www.semwebtech.org/ontology/2006/eca#EventLanguage")
	if !g.Contains(Triple{snoop, typ, evLang}) {
		t.Error("snoop a EventLanguage missing")
	}
	label := NewIRI(RDFSLabel)
	got := g.Match(&snoop, &label, nil)
	if len(got) != 1 || got[0].O.Value != "SNOOP" {
		t.Errorf("label = %v", got)
	}
}

func TestParseTurtleLiterals(t *testing.T) {
	ts := MustParseTurtle(`
		@prefix x: <http://x/> .
		x:a x:str "hello" ;
			x:esc "a\"b\nc" ;
			x:lang "bonjour"@fr ;
			x:typed "5"^^<http://www.w3.org/2001/XMLSchema#integer> ;
			x:int 42 ;
			x:neg -7 ;
			x:dec 3.14 ;
			x:yes true ;
			x:no false .
	`)
	byPred := map[string]Term{}
	for _, tr := range ts {
		byPred[tr.P.Value] = tr.O
	}
	if byPred["http://x/str"].Value != "hello" {
		t.Errorf("str = %v", byPred["http://x/str"])
	}
	if byPred["http://x/esc"].Value != "a\"b\nc" {
		t.Errorf("esc = %q", byPred["http://x/esc"].Value)
	}
	if byPred["http://x/lang"].Lang != "fr" {
		t.Errorf("lang = %v", byPred["http://x/lang"])
	}
	if byPred["http://x/typed"].Datatype != XSDNS+"integer" {
		t.Errorf("typed = %v", byPred["http://x/typed"])
	}
	if byPred["http://x/int"].Value != "42" || byPred["http://x/int"].Datatype != XSDNS+"integer" {
		t.Errorf("int = %v", byPred["http://x/int"])
	}
	if byPred["http://x/neg"].Value != "-7" {
		t.Errorf("neg = %v", byPred["http://x/neg"])
	}
	if byPred["http://x/dec"].Value != "3.14" || byPred["http://x/dec"].Datatype != XSDNS+"decimal" {
		t.Errorf("dec = %v", byPred["http://x/dec"])
	}
	if byPred["http://x/yes"].Value != "true" {
		t.Errorf("yes = %v", byPred["http://x/yes"])
	}
}

func TestParseTurtleBlankNodes(t *testing.T) {
	ts := MustParseTurtle(`
		@prefix x: <http://x/> .
		_:b1 x:p x:o .
		x:s x:q [ x:r "inner" ] .
		x:s x:empty [] .
	`)
	if len(ts) != 4 {
		t.Fatalf("triples = %d, want 4: %v", len(ts), ts)
	}
	var anon Term
	for _, tr := range ts {
		if tr.P.Value == "http://x/q" {
			anon = tr.O
		}
	}
	if anon.Kind != Blank {
		t.Fatalf("object of x:q should be blank, got %v", anon)
	}
	found := false
	for _, tr := range ts {
		if tr.S == anon && tr.P.Value == "http://x/r" && tr.O.Value == "inner" {
			found = true
		}
	}
	if !found {
		t.Error("nested blank node triple missing")
	}
}

func TestParseTurtleErrors(t *testing.T) {
	bad := []string{
		`x:a x:b x:c .`,                            // undeclared prefix
		`@prefix x: <http://x/> . x:a x:b `,        // missing object/dot
		`@prefix x: <http://x/> . "lit" x:b x:c .`, // literal subject
		`@prefix x: <http://x/> . x:a "notpred" x:c .`,
		`@prefix x: <http://x/> . x:a x:b "unterminated .`,
		`@prefix x: <http://x/ . `, // unterminated IRI... actually terminated by > missing
	}
	for _, src := range bad {
		if _, err := ParseTurtleString(src); err == nil {
			t.Errorf("ParseTurtleString(%q): expected error", src)
		}
	}
}

func TestTurtleRoundTrip(t *testing.T) {
	g := loadSample(t)
	var b strings.Builder
	err := WriteTurtle(&b, g.Triples(), map[string]string{
		"eca":  "http://www.semwebtech.org/ontology/2006/eca#",
		"lang": "http://www.semwebtech.org/languages/2006/",
	})
	if err != nil {
		t.Fatal(err)
	}
	ts, err := ParseTurtleString(b.String())
	if err != nil {
		t.Fatalf("round trip parse: %v\n%s", err, b.String())
	}
	g2 := NewGraph()
	g2.AddAll(ts)
	if g2.Len() != g.Len() {
		t.Fatalf("round trip: %d triples, want %d\n%s", g2.Len(), g.Len(), b.String())
	}
	for _, tr := range g.Triples() {
		if !g2.Contains(tr) {
			t.Errorf("round trip lost %v", tr)
		}
	}
}

func TestMatchWildcards(t *testing.T) {
	g := loadSample(t)
	typ := NewIRI(RDFType)
	all := g.Match(nil, &typ, nil)
	if len(all) != 2 {
		t.Errorf("rdf:type triples = %d, want 2", len(all))
	}
	if n := len(g.Match(nil, nil, nil)); n != g.Len() {
		t.Errorf("full wildcard = %d, want %d", n, g.Len())
	}
}

func TestRemove(t *testing.T) {
	g := NewGraph()
	tr := Triple{NewIRI("s"), NewIRI("p"), NewLiteral("o")}
	g.Add(tr)
	if !g.Remove(tr) || g.Len() != 0 {
		t.Error("remove failed")
	}
	if g.Remove(tr) {
		t.Error("double remove should report false")
	}
	if len(g.Match(nil, nil, nil)) != 0 {
		t.Error("index not cleaned")
	}
}

func TestSubClassClosure(t *testing.T) {
	g := loadSample(t)
	comp := NewIRI("http://www.semwebtech.org/ontology/2006/eca#ComponentLanguage")
	closure := g.SubClassClosure(comp)
	if len(closure) != 3 {
		t.Errorf("closure size = %d, want 3 (self + 2 subclasses): %v", len(closure), closure)
	}
}

func TestQueryBGP(t *testing.T) {
	g := loadSample(t)
	ecaNS := "http://www.semwebtech.org/ontology/2006/eca#"
	// Find every language with its implementing service endpoint:
	// ?L eca:implementedBy ?S . ?S eca:endpoint ?E
	rel := g.Query([]Pattern{
		{V("L"), T(NewIRI(ecaNS + "implementedBy")), V("S")},
		{V("S"), T(NewIRI(ecaNS + "endpoint")), V("E")},
	})
	if rel.Size() != 1 {
		t.Fatalf("query size = %d, want 1 (only snoop-service has an endpoint)\n%s", rel.Size(), rel)
	}
	tup := rel.Tuples()[0]
	if tup["E"].AsString() != "http://localhost:8081/snoop" {
		t.Errorf("E = %v", tup["E"])
	}
	if tup["L"].Kind() != bindings.URI {
		t.Errorf("L should be a URI, got %v", tup["L"].Kind())
	}
}

func TestQueryJoinVariable(t *testing.T) {
	g := NewGraph()
	g.AddAll(MustParseTurtle(`
		@prefix x: <http://x/> .
		x:a x:knows x:b . x:b x:knows x:c . x:c x:knows x:a .
		x:a x:age 30 . x:b x:age 30 . x:c x:age 40 .
	`))
	// Same-age pairs that know each other.
	rel := g.Query([]Pattern{
		{V("P"), T(NewIRI("http://x/knows")), V("Q")},
		{V("P"), T(NewIRI("http://x/age")), V("A")},
		{V("Q"), T(NewIRI("http://x/age")), V("A")},
	})
	if rel.Size() != 1 {
		t.Fatalf("rel = %s", rel)
	}
	tup := rel.Tuples()[0]
	if tup["P"].AsString() != "http://x/a" || tup["Q"].AsString() != "http://x/b" {
		t.Errorf("pair = %v", tup)
	}
	if n, _ := tup["A"].AsNumber(); n != 30 {
		t.Errorf("A = %v", tup["A"])
	}
}

func TestQueryNoMatch(t *testing.T) {
	g := loadSample(t)
	rel := g.Query([]Pattern{
		{V("X"), T(NewIRI("http://nosuch/pred")), V("Y")},
	})
	if !rel.Empty() {
		t.Error("expected empty relation")
	}
}

func TestQueryConstantPattern(t *testing.T) {
	g := loadSample(t)
	// Fully ground pattern acts as an assertion.
	snoop := NewIRI("http://www.semwebtech.org/languages/2006/snoop")
	rel := g.Query([]Pattern{
		{T(snoop), T(NewIRI(RDFSLabel)), T(NewLiteral("SNOOP"))},
	})
	if rel.Size() != 1 || len(rel.Tuples()[0]) != 0 {
		t.Errorf("ground query = %s", rel)
	}
}

func TestConcurrentGraphAccess(t *testing.T) {
	g := NewGraph()
	done := make(chan bool)
	for i := 0; i < 8; i++ {
		go func(n int) {
			for j := 0; j < 100; j++ {
				g.Add(Triple{NewIRI("s"), NewIRI("p"), NewLiteral(strings.Repeat("x", n+1))})
				g.Match(nil, nil, nil)
			}
			done <- true
		}(i)
	}
	for i := 0; i < 8; i++ {
		<-done
	}
	if g.Len() != 8 {
		t.Errorf("len = %d, want 8", g.Len())
	}
}

// Property: term string rendering of literals survives a Turtle round trip.
func TestQuickLiteralRoundTrip(t *testing.T) {
	f := func(s string) bool {
		if strings.ContainsAny(s, "\x00") || !validUTF8(s) {
			return true
		}
		src := "@prefix x: <http://x/> .\nx:a x:p " + NewLiteral(s).String() + " ."
		ts, err := ParseTurtleString(src)
		if err != nil || len(ts) != 1 {
			return false
		}
		return ts[0].O.Value == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func validUTF8(s string) bool {
	for _, r := range s {
		if r == 0xFFFD {
			return false
		}
	}
	return true
}

// Anonymous blank nodes nest at most xmltree.MaxDepth deep: a document at
// the bound parses, one level more is rejected with an error naming the
// bound, and a megabyte of open brackets is rejected at the same level,
// under a 1 MiB stack, instead of recursing through the whole input.
func TestTurtleNestingBound(t *testing.T) {
	defer debug.SetMaxStack(debug.SetMaxStack(1 << 20))
	nested := func(depth int) string {
		return "<s> " + strings.Repeat("<p> [ ", depth) + "<p> <o>" + strings.Repeat(" ]", depth) + " ."
	}
	for _, c := range []struct {
		name string
		src  string
		ok   bool
	}{
		{"at the bound", nested(256), true},
		{"one past the bound", nested(257), false},
		{"1 MB of open brackets", "<s> <p> " + strings.Repeat("[ <p> ", 1<<20/6), false},
	} {
		t.Run(c.name, func(t *testing.T) {
			ts, err := ParseTurtleString(c.src)
			if c.ok {
				if err != nil {
					t.Fatal(err)
				}
				if len(ts) != 257 {
					t.Fatalf("triples = %d, want 257", len(ts))
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), "deeper than 256") {
				t.Fatalf("err = %v, want the nesting bound", err)
			}
		})
	}
}
