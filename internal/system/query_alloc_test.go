package system_test

// The query evaluations of the travel scenario, one at a time, the way the
// services run them: the framework-aware XQuery of Fig. 7 with its tuple's
// variables bound, directly and at the XQuery service, the class XPath a Fig. 9 GET hands the opaque store, the
// log:answers-generating XQuery of Fig. 10, one GET of that query at the
// opaque XQuery node, and the durable_batch test through EvalTest.
//
//	go test -run '^$' -bench Eval -benchtime 200x -benchmem ./internal/system/

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"repro/internal/bindings"
	"repro/internal/domain/travel"
	"repro/internal/grh"
	"repro/internal/protocol"
	"repro/internal/ruleml"
	"repro/internal/services"
	"repro/internal/xmltree"
	"repro/internal/xpath"
	"repro/internal/xq"
)

// travelQueries holds the compiled travel queries and what each is
// evaluated against.
type travelQueries struct {
	own      *xq.Query // Fig. 7
	ownCtx   *xq.Context
	class    *xpath.Expr // Fig. 9, $OwnCar substituted
	classCtx *xpath.Context
	availSrc string    // Fig. 10, $Dest substituted
	avail    *xq.Query // availSrc compiled
	availCtx *xq.Context
	node     http.Handler // the opaque XQuery node serving availSrc
	test     *xpath.Expr  // the durable_batch test
	testRel  *bindings.Relation
	// ownReq asks the XQuery service for the Fig. 7 query with a tuple
	// that also binds the booking event, which the query does not read.
	ownReq *protocol.Request
	xquery *services.XQueryService
}

// newTravelQueries reads the three query components out of the Fig. 4
// rule and binds them as one booking of John Doe to Paris binds them.
func newTravelQueries(tb testing.TB) *travelQueries {
	tb.Helper()
	rule, err := ruleml.ParseString(travel.RuleXML("http://store.invalid", "http://xquery.invalid"))
	if err != nil {
		tb.Fatal(err)
	}
	if len(rule.Steps) != 3 {
		tb.Fatalf("the Fig. 4 rule has %d query components, want 3", len(rule.Steps))
	}
	event := bindings.Tuple{"Person": bindings.Str("John Doe"), "Dest": bindings.Str("Paris")}
	store := services.NewDocStore()
	travel.LoadStore(store)
	ns := travel.Namespaces()

	own, err := services.CompileXQuery(rule.Steps[0])
	if err != nil {
		tb.Fatal(err)
	}
	q := &travelQueries{
		own: own.(*xq.Query),
		ownCtx: &xq.Context{Docs: store.Resolver(), Namespaces: ns, Vars: map[string]xq.Sequence{
			"Person": {"John Doe"}, "Dest": {"Paris"},
		}},
		class:    xpath.MustCompile(grh.SubstituteVars(rule.Steps[1].Text, bindings.Tuple{"OwnCar": bindings.Str("VW Golf")})),
		classCtx: &xpath.Context{Node: xmltree.MustParse(travel.ClassesXML)},
		availSrc: grh.SubstituteVars(rule.Steps[2].Text, event),
		availCtx: &xq.Context{Docs: store.Resolver(), Namespaces: ns},
		node:     services.NewOpaqueXQueryNode(store, ns),
		test:     xpath.MustCompile(`$Dest != 'Nowhere'`),
	}
	q.avail = xq.MustCompile(q.availSrc)
	q.xquery = services.NewXQueryService(store, ns)
	q.ownReq = &protocol.Request{Kind: protocol.Query, RuleID: "car-rental", Component: "query[1]", Compiled: q.own,
		Bindings: bindings.NewRelation(bindings.Tuple{
			"Person": bindings.Str("John Doe"), "Dest": bindings.Str("Paris"),
			"Booking": bindings.Fragment(travel.Booking("John Doe", "Munich", "Paris")),
		})}
	q.testRel = bindings.NewRelation(bindings.Tuple{
		"Person": bindings.Str("John Doe"), "Dest": bindings.Str("Paris"), "Ref": bindings.Str("17"),
	})
	return q
}

func (q *travelQueries) evalOwn(tb testing.TB) xq.Sequence {
	seq, err := q.own.Eval(q.ownCtx)
	if err != nil {
		tb.Fatal(err)
	}
	return seq
}

func (q *travelQueries) serveOwn(tb testing.TB) *protocol.Answer {
	a, err := q.xquery.Handle(q.ownReq)
	if err != nil {
		tb.Fatal(err)
	}
	return a
}

func (q *travelQueries) evalClass(tb testing.TB) xpath.NodeSet {
	ns, err := q.class.EvalNodes(q.classCtx)
	if err != nil {
		tb.Fatal(err)
	}
	return ns
}

func (q *travelQueries) evalAvail(tb testing.TB) xq.Sequence {
	seq, err := q.avail.Eval(q.availCtx)
	if err != nil {
		tb.Fatal(err)
	}
	return seq
}

func (q *travelQueries) evalTest(tb testing.TB) *bindings.Relation {
	rel, err := services.EvalTest(q.test, q.testRel)
	if err != nil {
		tb.Fatal(err)
	}
	return rel
}

// serve GETs availSrc from the opaque XQuery node.
func (q *travelQueries) serve(tb testing.TB) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	q.node.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/?query="+url.QueryEscape(q.availSrc), nil))
	if rec.Code != http.StatusOK {
		tb.Fatalf("GET /opaque/xquery = %d %s", rec.Code, rec.Body)
	}
	return rec
}

// Upper bounds on what one evaluation allocates. The evaluations make 38,
// 47, 11, 93 and 8; each saving of the allocation-lean evaluation path
// fails at least one row when it returns: a map per location step costs
// 19, 6 and 25, a function map and doc() closure per XPath call 9 and 15,
// converting every bound variable of a test 2, and converting every
// variable of the XQuery service's tuple, not just the one Fig. 7 reads, 3.
const (
	maxOwnAllocs        = 43
	maxOwnServiceAllocs = 48
	maxClassAllocs      = 14
	maxAvailAllocs      = 100
	maxTestAllocs       = 9
)

// TestQueryEvalAllocs pins what the travel queries and the durable_batch
// test allocate per evaluation, and checks their results.
func TestQueryEvalAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	q := newTravelQueries(t)
	if got := strings.Join(itemStrings(q.evalOwn(t)), "|"); got != "VW Golf|VW Passat" {
		t.Errorf("Fig. 7 = %q", got)
	}
	if ns := q.evalClass(t); len(ns) != 1 || ns[0].Text != "C" {
		t.Errorf("Fig. 9 = %v", ns)
	}
	want := `<log:answers xmlns:log="` + protocol.LogNS + `">` +
		`<log:answer><log:variable name="Class">B</log:variable><log:variable name="Avail">Opel Astra</log:variable></log:answer>` +
		`<log:answer><log:variable name="Class">D</log:variable><log:variable name="Avail">Renault Espace</log:variable></log:answer>` +
		`</log:answers>`
	if seq := q.evalAvail(t); len(seq) != 1 || seq[0].(*xmltree.Node).String() != want {
		t.Errorf("Fig. 10 = %v, want %s", itemStrings(seq), want)
	}
	if got := q.serve(t).Body.String(); got != want {
		t.Errorf("GET Fig. 10 = %s, want %s", got, want)
	}
	if a := q.serveOwn(t); len(a.Rows) != 1 || len(a.Rows[0].Results) != 2 {
		t.Errorf("Fig. 7 at the XQuery service = %+v", a)
	}
	if n := q.evalTest(t).Size(); n != 1 {
		t.Errorf("test kept %d of 1 tuples", n)
	}
	for _, row := range []struct {
		name  string
		limit int
		eval  func()
	}{
		{"Fig. 7", maxOwnAllocs, func() { q.evalOwn(t) }},
		{"Fig. 7 at the XQuery service", maxOwnServiceAllocs, func() { q.serveOwn(t) }},
		{"Fig. 9", maxClassAllocs, func() { q.evalClass(t) }},
		{"Fig. 10", maxAvailAllocs, func() { q.evalAvail(t) }},
		{"durable_batch test", maxTestAllocs, func() { q.evalTest(t) }},
	} {
		got := testing.AllocsPerRun(100, row.eval)
		t.Logf("%s: %.0f allocations per evaluation", row.name, got)
		if got > float64(row.limit) {
			t.Errorf("%s: %.0f allocations per evaluation, limit %d", row.name, got, row.limit)
		}
	}
}

func itemStrings(seq xq.Sequence) []string {
	out := make([]string, len(seq))
	for i, it := range seq {
		out[i] = xq.ItemString(it)
	}
	return out
}

func BenchmarkEvalFig7(b *testing.B) {
	q := newTravelQueries(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.evalOwn(b)
	}
}

func BenchmarkEvalFig9(b *testing.B) {
	q := newTravelQueries(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.evalClass(b)
	}
}

func BenchmarkEvalFig10(b *testing.B) {
	q := newTravelQueries(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.evalAvail(b)
	}
}

// BenchmarkEvalOpaqueServe is one GET of the Fig. 10 query at the opaque
// XQuery node: query-string decode, compile (or its memo), evaluation and
// the serialized reply.
func BenchmarkEvalOpaqueServe(b *testing.B) {
	q := newTravelQueries(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.serve(b)
	}
}

func BenchmarkEvalTest(b *testing.B) {
	q := newTravelQueries(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.evalTest(b)
	}
}

// Upper bounds on what one compile of the Fig. 7 and Fig. 10 queries
// allocates: the counts of the parser that carved XPath spans out of the
// query text and compiled each apart. Under -distribute the XQuery
// service compiles the Fig. 7 query on every request.
const (
	maxOwnCompileAllocs   = 36
	maxAvailCompileAllocs = 70
)

// TestQueryCompileAllocs: compiling the Fig. 7 and Fig. 10 queries costs
// no more allocations than it did before xq read XPath's token stream.
func TestQueryCompileAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	q := newTravelQueries(t)
	for _, row := range []struct {
		name  string
		src   string
		limit int
	}{
		{"Fig. 7", q.own.String(), maxOwnCompileAllocs},
		{"Fig. 10", q.availSrc, maxAvailCompileAllocs},
	} {
		got := testing.AllocsPerRun(100, func() { xq.MustCompile(row.src) })
		t.Logf("%s: %.0f allocations per compile", row.name, got)
		if got > float64(row.limit) {
			t.Errorf("%s: %.0f allocations per compile, limit %d", row.name, got, row.limit)
		}
	}
}

func BenchmarkCompileFig7(b *testing.B) {
	src := newTravelQueries(b).own.String()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		xq.MustCompile(src)
	}
}

func BenchmarkCompileFig10(b *testing.B) {
	src := newTravelQueries(b).availSrc
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		xq.MustCompile(src)
	}
}
