// Benchmarks regenerating the paper's evaluation, one benchmark per figure
// plus a few language-level micro-benchmarks. The paper (a
// prototype/demonstration paper) reports no absolute numbers; what must
// reproduce is each figure's artifact and message flow — asserted by
// TestReproduceAllFigures and the engine integration tests — while the
// benchmarks put costs against every step of the architecture. End-to-end
// performance is measured by the benchmark/ module (BENCHMARK.json).
//
// Run with: go test -bench=. -benchmem
package eca_test

import (
	"fmt"
	"io"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/bindings"
	"repro/internal/datalog"
	"repro/internal/domain/travel"
	"repro/internal/events"
	"repro/internal/grh"
	"repro/internal/ontology"
	"repro/internal/protocol"
	"repro/internal/rdf"
	"repro/internal/ruleml"
	"repro/internal/services"
	"repro/internal/snoop"
	"repro/internal/system"
	"repro/internal/xmltree"
	"repro/internal/xpath"
	"repro/internal/xq"
)

// TestReproduceAllFigures asserts every figure of the paper regenerates
// without error (content assertions live in the per-package tests).
func TestReproduceAllFigures(t *testing.T) {
	for _, n := range bench.Figures() {
		n := n
		t.Run(fmt.Sprintf("fig%d", n), func(t *testing.T) {
			if err := bench.RunFigure(n, io.Discard); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// --- per-figure benchmarks -----------------------------------------------------

// BenchmarkFig1Ontology: describing + validating the sample rule against
// the rule/language ontology.
func BenchmarkFig1Ontology(b *testing.B) {
	sys, err := system.NewLocal(system.Config{})
	if err != nil {
		b.Fatal(err)
	}
	rule, err := ruleml.ParseString(travel.RuleXML("http://x/store", "http://x/xq"))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := ontology.Base()
		ontology.DescribeRegistry(g, sys.GRH)
		ontology.DescribeLanguage(g, grh.Descriptor{
			Language: services.XQueryNS + "-opaque",
			Kinds:    []ruleml.ComponentKind{ruleml.QueryComponent},
			Endpoint: "http://x/",
		})
		ontology.DescribeRule(g, rule)
		if err := ontology.Validate(g, rule.ID); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2HierarchyQuery: the Fig. 2 language-family closure walk.
func BenchmarkFig2HierarchyQuery(b *testing.B) {
	sys, _ := system.NewLocal(system.Config{})
	g := ontology.Base()
	ontology.DescribeRegistry(g, sys.GRH)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n := len(ontology.LanguagesInFamily(g, ontology.ClassLanguage)); n < 6 {
			b.Fatalf("languages = %d", n)
		}
	}
}

// BenchmarkFig4RuleParsing: parsing the sample rule document and making
// its plan (compile and validate), as registration does.
func BenchmarkFig4RuleParsing(b *testing.B) {
	src := travel.RuleXML("http://x/store", "http://x/xq")
	sys, err := system.NewLocal(system.Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer sys.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rule, err := ruleml.ParseString(src)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := sys.Engine.Analyze(rule); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5Registration: registering a rule's event component through
// the GRH at the atomic matcher.
func BenchmarkFig5Registration(b *testing.B) {
	sys, err := system.NewLocal(system.Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rule := ruleml.MustParse(fmt.Sprintf(`<eca:rule xmlns:eca="%s" xmlns:t="http://t/" id="r%d">
		  <eca:event><t:e%d x="$X"/></eca:event>
		  <eca:action><t:a x="$X"/></eca:action>
		</eca:rule>`, protocol.ECANS, i, i))
		if err := sys.Engine.Register(rule); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6Detection: matching one event against a registered pattern
// and creating the rule instance (event + trivial action).
func BenchmarkFig6Detection(b *testing.B) {
	sys, err := system.NewLocal(system.Config{})
	if err != nil {
		b.Fatal(err)
	}
	rule := ruleml.MustParse(`<eca:rule xmlns:eca="` + protocol.ECANS + `" xmlns:t="http://t/" id="r">
	  <eca:event><t:e x="$X"/></eca:event>
	  <eca:action><t:a x="$X"/></eca:action>
	</eca:rule>`)
	if err := sys.Engine.Register(rule); err != nil {
		b.Fatal(err)
	}
	payload := xmltree.NewElement("http://t/", "e")
	payload.SetAttr("", "x", "1")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Stream.Publish(events.Event{Payload: payload})
	}
	if got := sys.Notifier.Count(); got != b.N {
		b.Fatalf("fired %d, want %d", got, b.N)
	}
}

// BenchmarkFig7RequestEncoding: marshalling a query request envelope with
// input bindings to the wire format and back.
func BenchmarkFig7RequestEncoding(b *testing.B) {
	expr := xmltree.NewElement(services.XQueryNS, "query")
	expr.AppendText(`for $c in doc('cars')//car return $c`)
	req := &protocol.Request{
		Kind: protocol.Query, RuleID: "car-rental", Component: "query[1]",
		Language:   services.XQueryNS,
		Expression: expr,
		Bindings: bindings.NewRelation(
			bindings.MustTuple("Person", bindings.Str("John Doe"), "Dest", bindings.Str("Paris")),
		),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := protocol.EncodeRequest(req).String()
		doc, err := xmltree.ParseString(s)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := protocol.DecodeRequest(doc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8FrameworkAwareQuery: the first query component — a
// framework-aware XQuery evaluation binding OwnCar per input tuple.
func BenchmarkFig8FrameworkAwareQuery(b *testing.B) {
	store := services.NewDocStore()
	travel.LoadStore(store)
	svc := services.NewXQueryService(store, nil)
	expr := xmltree.NewElement(services.XQueryNS, "query")
	expr.AppendText(`for $c in doc('` + travel.CarsDoc + `')//owner[@name=$Person]/car return $c/model/text()`)
	req := &protocol.Request{
		Kind: protocol.Query, RuleID: "r", Component: "query[1]", Expression: expr,
		Bindings: bindings.NewRelation(bindings.MustTuple("Person", bindings.Str("John Doe"))),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := svc.Handle(req)
		if err != nil {
			b.Fatal(err)
		}
		if len(a.Rows[0].Results) != 2 {
			b.Fatalf("results = %d", len(a.Rows[0].Results))
		}
	}
}

// BenchmarkFig9OpaquePerTuple: the framework-unaware protocol — per-tuple
// HTTP GET with variable substitution and result re-wrapping.
func BenchmarkFig9OpaquePerTuple(b *testing.B) {
	srv := httptest.NewServer(services.NewOpaqueXMLStore(xmltree.MustParse(travel.ClassesXML), nil))
	defer srv.Close()
	g := grh.New()
	comp := grh.Component{
		Rule: "r",
		Comp: ruleml.Component{
			Kind: ruleml.QueryComponent, ID: "query[2]", Opaque: true,
			Language: "raw", Service: srv.URL,
			Text: `//entry[@model='$OwnCar']/@class`,
		},
		Bindings: bindings.NewRelation(
			bindings.MustTuple("OwnCar", bindings.Str("VW Golf")),
			bindings.MustTuple("OwnCar", bindings.Str("VW Passat")),
		),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := g.Dispatch(protocol.Query, comp)
		if err != nil {
			b.Fatal(err)
		}
		if len(a.Rows) != 2 {
			b.Fatalf("rows = %d", len(a.Rows))
		}
	}
}

// BenchmarkFig10LogAnswersGeneration: the raw XQuery node generating the
// log:answers structure, decoded by the GRH.
func BenchmarkFig10LogAnswersGeneration(b *testing.B) {
	store := services.NewDocStore()
	travel.LoadStore(store)
	srv := httptest.NewServer(services.NewOpaqueXQueryNode(store, travel.Namespaces()))
	defer srv.Close()
	g := grh.New()
	comp := grh.Component{
		Rule: "r",
		Comp: ruleml.Component{
			Kind: ruleml.QueryComponent, ID: "query[3]", Opaque: true,
			Language: "raw", Service: srv.URL,
			Text: `<log:answers xmlns:log="` + protocol.LogNS + `">{for $c in doc('` + travel.AvailDoc +
				`')//city[@name='$Dest']/car return <log:answer><log:variable name="Class">{string($c/@class)}</log:variable></log:answer>}</log:answers>`,
		},
		Bindings: bindings.NewRelation(bindings.MustTuple("Dest", bindings.Str("Paris"))),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := g.Dispatch(protocol.Query, comp)
		if err != nil {
			b.Fatal(err)
		}
		if len(a.Rows) != 2 {
			b.Fatalf("rows = %d", len(a.Rows))
		}
	}
}

// BenchmarkFig11Join: the natural join eliminating tuples whose class is
// not available at the destination.
func BenchmarkFig11Join(b *testing.B) {
	owned := bindings.NewRelation(
		bindings.MustTuple("Person", bindings.Str("John Doe"), "OwnCar", bindings.Str("VW Golf"), "Class", bindings.Str("C")),
		bindings.MustTuple("Person", bindings.Str("John Doe"), "OwnCar", bindings.Str("VW Passat"), "Class", bindings.Str("B")),
	)
	avail := bindings.NewRelation(
		bindings.MustTuple("Class", bindings.Str("B"), "Avail", bindings.Str("Opel Astra")),
		bindings.MustTuple("Class", bindings.Str("D"), "Avail", bindings.Str("Renault Espace")),
	)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if owned.Join(avail).Size() != 1 {
			b.Fatal("join shape changed")
		}
	}
}

// BenchmarkFig3EndToEnd: one complete car-rental firing, local and
// distributed deployments.
func BenchmarkFig3EndToEnd(b *testing.B) {
	for _, mode := range []string{"local", "distributed"} {
		b.Run(mode, func(b *testing.B) {
			sc, cleanup, err := travel.NewScenario(system.Config{})
			if err != nil {
				b.Fatal(err)
			}
			defer cleanup()
			if mode == "distributed" {
				srv := httptest.NewServer(sc.Mux(xmltree.MustParse(travel.ClassesXML), travel.Namespaces()))
				defer srv.Close()
				if err := sc.Distribute(srv.URL); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sc.Book("John Doe", "Munich", "Paris")
			}
			if got := sc.Notifier.Count(); got != b.N {
				b.Fatalf("fired %d, want %d", got, b.N)
			}
		})
	}
}

// --- language benchmarks ---------------------------------------------------------

// BenchmarkSnoopSeq: sequence detection by parameter context.
func BenchmarkSnoopSeq(b *testing.B) {
	for _, ctx := range []snoop.ParamContext{snoop.Recent, snoop.Chronicle, snoop.Continuous, snoop.Cumulative} {
		b.Run(ctx.String(), func(b *testing.B) {
			e := &snoop.Seq{
				L: &snoop.Atomic{Pattern: mustPattern(`<a k="$K"/>`)},
				R: &snoop.Atomic{Pattern: mustPattern(`<b k="$K"/>`)},
			}
			det, err := snoop.NewDetector(e, ctx, func(snoop.Occurrence) {})
			if err != nil {
				b.Fatal(err)
			}
			names := []string{"a", "b"}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				el := xmltree.NewElement("", names[i%2])
				el.SetAttr("", "k", fmt.Sprint((i/2)%8))
				det.Feed(events.Event{Payload: el, Seq: uint64(i + 1), Time: time.Unix(int64(i), 0)})
			}
		})
	}
}

// BenchmarkDatalogTC: transitive closure on chains.
func BenchmarkDatalogTC(b *testing.B) {
	for _, n := range []int{50, 200} {
		b.Run(fmt.Sprintf("nodes=%d", n), func(b *testing.B) {
			src := ""
			for i := 0; i < n-1; i++ {
				src += fmt.Sprintf("e(n%d, n%d).\n", i, i+1)
			}
			src += "tc(X, Y) :- e(X, Y).\ntc(X, Z) :- e(X, Y), tc(Y, Z).\n"
			prog := datalog.MustParse(src)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := prog.Eval(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkXQueryEval: FLWOR evaluation on the cars document.
func BenchmarkXQueryEval(b *testing.B) {
	store := services.NewDocStore()
	travel.LoadStore(store)
	q := xq.MustCompile(`for $c in doc('` + travel.CarsDoc + `')//owner[@name=$Person]/car return $c/model/text()`)
	ctx := &xq.Context{Docs: store.Resolver(), Vars: map[string]xq.Sequence{"Person": {"John Doe"}}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := q.Eval(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkXPathEval: path + predicate evaluation.
func BenchmarkXPathEval(b *testing.B) {
	doc := xmltree.MustParse(travel.CarsXML)
	e := xpath.MustCompile(`//owner[@name='John Doe']/car[year>2004]/model`)
	ctx := &xpath.Context{Node: doc}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Eval(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRDFQuery: basic-graph-pattern matching on the language registry
// graph.
func BenchmarkRDFQuery(b *testing.B) {
	sys, _ := system.NewLocal(system.Config{})
	g := ontology.Base()
	ontology.DescribeRegistry(g, sys.GRH)
	pats := []rdf.Pattern{
		{S: rdf.V("L"), P: rdf.T(rdf.NewIRI(ontology.NS + "implementedBy")), O: rdf.V("S")},
		{S: rdf.V("S"), P: rdf.T(rdf.NewIRI(rdf.RDFType)), O: rdf.T(ontology.ClassService)},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if g.Query(pats).Size() < 6 {
			b.Fatal("registry graph shrank")
		}
	}
}

// mustPattern compiles an event pattern from XML source, panicking on
// error.
func mustPattern(src string) *events.Pattern {
	p, err := events.NewPattern(xmltree.MustParse(src))
	if err != nil {
		panic(err)
	}
	return p
}

// BenchmarkEventPatternMatch: single pattern match against one event.
func BenchmarkEventPatternMatch(b *testing.B) {
	p := mustPattern(`<t:booking xmlns:t="` + travel.NS + `" person="$Person" to="$Dest"/>`)
	ev := events.New(travel.Booking("John Doe", "Munich", "Paris"))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(p.Match(ev)) != 1 {
			b.Fatal("no match")
		}
	}
}
