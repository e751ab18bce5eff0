package grh

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/bindings"
	"repro/internal/protocol"
	"repro/internal/ruleml"
	"repro/internal/xmltree"
)

func TestRegistryLookupAndDefaults(t *testing.T) {
	g := New()
	echo := ServiceFunc(func(req *protocol.Request) (*protocol.Answer, error) {
		return protocol.NewAnswer(req.RuleID, req.Component, req.Bindings), nil
	})
	if err := g.Register(Descriptor{Language: "http://l1/", Local: echo, FrameworkAware: true}); err != nil {
		t.Fatal(err)
	}
	if err := g.Register(Descriptor{Language: "http://l2/", Local: echo, FrameworkAware: true}); err != nil {
		t.Fatal(err)
	}
	g.SetDefault(ruleml.QueryComponent, "http://l1/")
	if got := g.Languages(); len(got) != 2 {
		t.Errorf("languages = %v", got)
	}
	if _, ok := g.Lookup("http://l1/"); !ok {
		t.Error("lookup failed")
	}
	// Dispatch with explicit language.
	a, err := g.Dispatch(protocol.Query, Component{
		Rule:     "r",
		Comp:     ruleml.Component{Kind: ruleml.QueryComponent, ID: "query[1]", Language: "http://l2/", Expression: xmltree.NewElement("http://l2/", "q")},
		Bindings: bindings.NewRelation(bindings.MustTuple("X", bindings.Str("1"))),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Rows) != 1 {
		t.Errorf("rows = %v", a.Rows)
	}
	// Dispatch falling back to the kind default (no language).
	if _, err := g.Dispatch(protocol.Query, Component{
		Rule:     "r",
		Comp:     ruleml.Component{Kind: ruleml.QueryComponent, ID: "query[2]", Expression: xmltree.NewElement("", "bare")},
		Bindings: bindings.NewRelation(),
	}); err != nil {
		t.Fatalf("default dispatch: %v", err)
	}
	// Unknown language without default.
	if _, err := g.Dispatch(protocol.Action, Component{
		Rule:     "r",
		Comp:     ruleml.Component{Kind: ruleml.ActionComponent, ID: "action[1]", Language: "http://nowhere/", Expression: xmltree.NewElement("http://nowhere/", "a")},
		Bindings: bindings.NewRelation(),
	}); err == nil {
		t.Error("unknown language should fail")
	}
}

func TestRegisterValidation(t *testing.T) {
	g := New()
	if err := g.Register(Descriptor{Language: ""}); err == nil {
		t.Error("missing language should fail")
	}
	if err := g.Register(Descriptor{Language: "x"}); err == nil {
		t.Error("missing service should fail")
	}
}

func TestKindRestriction(t *testing.T) {
	g := New()
	echo := ServiceFunc(func(req *protocol.Request) (*protocol.Answer, error) {
		return &protocol.Answer{}, nil
	})
	g.Register(Descriptor{
		Language:       "http://q/",
		Kinds:          []ruleml.ComponentKind{ruleml.QueryComponent},
		FrameworkAware: true,
		Local:          echo,
	})
	_, err := g.Dispatch(protocol.Action, Component{
		Rule:     "r",
		Comp:     ruleml.Component{Kind: ruleml.ActionComponent, Language: "http://q/", Expression: xmltree.NewElement("http://q/", "a")},
		Bindings: bindings.NewRelation(),
	})
	if err == nil || !strings.Contains(err.Error(), "does not accept") {
		t.Errorf("kind restriction not enforced: %v", err)
	}
}

func TestHTTPDispatchRoundTrip(t *testing.T) {
	// A framework-aware remote service: echoes input bindings with one
	// extra variable.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		doc, err := xmltree.Parse(r.Body)
		if err != nil {
			http.Error(w, err.Error(), 400)
			return
		}
		req, err := protocol.DecodeRequest(doc)
		if err != nil {
			http.Error(w, err.Error(), 400)
			return
		}
		out := bindings.NewRelation()
		for _, tup := range req.Bindings.Tuples() {
			n := tup.Clone()
			n["Extra"] = bindings.Str("yes")
			out.Add(n)
		}
		fmt.Fprint(w, protocol.EncodeAnswers(protocol.NewAnswer(req.RuleID, req.Component, out)).String())
	}))
	defer srv.Close()
	g := New()
	g.Register(Descriptor{Language: "http://remote/", FrameworkAware: true, Endpoint: srv.URL})
	a, err := g.Dispatch(protocol.Query, Component{
		Rule:     "r7",
		Comp:     ruleml.Component{Kind: ruleml.QueryComponent, ID: "query[1]", Language: "http://remote/", Expression: xmltree.NewElement("http://remote/", "q")},
		Bindings: bindings.NewRelation(bindings.MustTuple("P", bindings.Str("John"))),
	})
	if err != nil {
		t.Fatal(err)
	}
	if a.RuleID != "r7" || len(a.Rows) != 1 {
		t.Fatalf("answer = %+v", a)
	}
	if a.Rows[0].Tuple["Extra"].AsString() != "yes" || a.Rows[0].Tuple["P"].AsString() != "John" {
		t.Errorf("tuple = %v", a.Rows[0].Tuple)
	}
}

func TestHTTPDispatchErrors(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer srv.Close()
	g := New()
	g.Register(Descriptor{Language: "http://broken/", FrameworkAware: true, Endpoint: srv.URL})
	_, err := g.Dispatch(protocol.Query, Component{
		Rule:     "r",
		Comp:     ruleml.Component{Kind: ruleml.QueryComponent, Language: "http://broken/", Expression: xmltree.NewElement("http://broken/", "q")},
		Bindings: bindings.NewRelation(),
	})
	if err == nil || !strings.Contains(err.Error(), "HTTP 500") {
		t.Errorf("expected HTTP 500 error, got %v", err)
	}
}

// TestOpaqueMediation reproduces the Fig. 9 protocol: one GET per input
// tuple, variables substituted, results re-wrapped.
func TestOpaqueMediation(t *testing.T) {
	var queries []string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query().Get("query")
		queries = append(queries, q)
		switch {
		case strings.Contains(q, "Golf"):
			fmt.Fprint(w, `<results><value>C</value></results>`)
		case strings.Contains(q, "Passat"):
			fmt.Fprint(w, `<results><value>B</value></results>`)
		default:
			fmt.Fprint(w, `<results/>`)
		}
	}))
	defer srv.Close()
	g := New()
	a, err := g.Dispatch(protocol.Query, Component{
		Rule: "r",
		Comp: ruleml.Component{
			Kind: ruleml.QueryComponent, ID: "query[2]",
			Opaque: true, Language: "unknown-lang", Service: srv.URL,
			Text: `//entry[@model='$OwnCar']/@class`,
		},
		Bindings: bindings.NewRelation(
			bindings.MustTuple("OwnCar", bindings.Str("VW Golf")),
			bindings.MustTuple("OwnCar", bindings.Str("VW Passat")),
		),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(queries) != 2 {
		t.Fatalf("GETs = %d, want one per tuple", len(queries))
	}
	if !strings.Contains(queries[0], "VW Golf") {
		t.Errorf("substitution missing: %q", queries[0])
	}
	if len(a.Rows) != 2 {
		t.Fatalf("rows = %+v", a.Rows)
	}
	got := map[string]string{}
	for _, row := range a.Rows {
		if len(row.Results) != 1 {
			t.Fatalf("row results = %v", row.Results)
		}
		got[row.Tuple["OwnCar"].AsString()] = row.Results[0].AsString()
	}
	if got["VW Golf"] != "C" || got["VW Passat"] != "B" {
		t.Errorf("classes = %v", got)
	}
}

// TestOpaqueLogAnswers reproduces Fig. 10: the raw response already is a
// log:answers document and is decoded as if the service were framework
// aware.
func TestOpaqueLogAnswers(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `<log:answers xmlns:log="`+protocol.LogNS+`">
			<log:answer><log:variable name="Class">B</log:variable><log:variable name="Avail">Astra</log:variable></log:answer>
			<log:answer><log:variable name="Class">D</log:variable><log:variable name="Avail">Espace</log:variable></log:answer>
		</log:answers>`)
	}))
	defer srv.Close()
	g := New()
	a, err := g.Dispatch(protocol.Query, Component{
		Rule: "r",
		Comp: ruleml.Component{
			Kind: ruleml.QueryComponent, ID: "query[3]",
			Opaque: true, Language: "raw", Service: srv.URL,
			Text: "irrelevant",
		},
		Bindings: bindings.NewRelation(bindings.MustTuple("Dest", bindings.Str("Paris"))),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Rows) != 2 {
		t.Fatalf("rows = %+v", a.Rows)
	}
	// Tuples must be joined with the input tuple.
	for _, row := range a.Rows {
		if row.Tuple["Dest"].AsString() != "Paris" {
			t.Errorf("input tuple not merged: %v", row.Tuple)
		}
	}
}

func TestOpaquePlainTextResponse(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "alpha\nbeta\n")
	}))
	defer srv.Close()
	g := New()
	a, err := g.Dispatch(protocol.Query, Component{
		Rule:     "r",
		Comp:     ruleml.Component{Kind: ruleml.QueryComponent, Opaque: true, Language: "txt", Service: srv.URL, Text: "q"},
		Bindings: bindings.NewRelation(bindings.MustTuple("X", bindings.Str("1"))),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Rows) != 1 || len(a.Rows[0].Results) != 2 {
		t.Fatalf("rows = %+v", a.Rows)
	}
}

func TestOpaqueEventRejected(t *testing.T) {
	g := New()
	_, err := g.Dispatch(protocol.RegisterEvent, Component{
		Rule:     "r",
		Comp:     ruleml.Component{Kind: ruleml.EventComponent, Opaque: true, Language: "x", Service: "http://localhost:1/", Text: "e"},
		Bindings: bindings.NewRelation(),
	})
	if err == nil {
		t.Error("opaque event components must be rejected")
	}
}

func TestSubstituteVars(t *testing.T) {
	tup := bindings.MustTuple(
		"OwnCar", bindings.Str("VW Golf"),
		"OwnCarX", bindings.Str("OTHER"),
		"N", bindings.Num(5),
	)
	got := SubstituteVars(`m='$OwnCar' x='$OwnCarX' n=$N`, tup)
	want := `m='VW Golf' x='OTHER' n=5`
	if got != want {
		t.Errorf("SubstituteVars = %q, want %q", got, want)
	}
}

// A substituted value is never scanned again: $A yields "$B" even though B
// is bound, and a value naming its own variable does not recurse.
func TestSubstituteVarsDoesNotRescanValues(t *testing.T) {
	tup := bindings.MustTuple(
		"A", bindings.Str("$B"),
		"B", bindings.Str("x"),
		"Self", bindings.Str("$Self$"),
	)
	for q, want := range map[string]string{
		"$A":            "$B",
		"$B$A$B":        "x$Bx",
		"$Self":         "$Self$",
		"$$A $C $":      "$$B $C $",
		"no dollars":    "no dollars",
		"$Unbound only": "$Unbound only",
	} {
		for range 20 { // map order must not matter
			if got := SubstituteVars(q, tup); got != want {
				t.Fatalf("SubstituteVars(%q) = %q, want %q", q, got, want)
			}
		}
	}
}

func TestSubstituteVarsAllocations(t *testing.T) {
	tup := bindings.MustTuple("OwnCar", bindings.Str("VW Golf"), "N", bindings.Num(5))
	if n := testing.AllocsPerRun(100, func() { SubstituteVars("no variables here", tup) }); n != 0 {
		t.Errorf("a string without $ allocated %v times", n)
	}
	if n := testing.AllocsPerRun(100, func() { SubstituteVars("car=$OwnCar", tup) }); n > 1 {
		t.Errorf("one substitution allocated %v times, want at most 1", n)
	}
}

func TestTraceHook(t *testing.T) {
	g := New()
	var lines []string
	g.SetTrace(func(dir, peer string, payload *xmltree.Node) {
		lines = append(lines, dir+" "+peer)
	})
	echo := ServiceFunc(func(req *protocol.Request) (*protocol.Answer, error) {
		return &protocol.Answer{}, nil
	})
	g.Register(Descriptor{Language: "http://l/", Name: "echo", FrameworkAware: true, Local: echo})
	c := Component{
		Rule:     "r",
		Comp:     ruleml.Component{Kind: ruleml.QueryComponent, Language: "http://l/", Expression: xmltree.NewElement("http://l/", "q")},
		Bindings: bindings.NewRelation(),
	}
	g.Dispatch(protocol.Query, c)
	if len(lines) != 2 || lines[0] != "→ echo" || lines[1] != "← echo" {
		t.Errorf("trace = %v", lines)
	}
	// The eca:request / log:answers trees exist only for the tracer: an
	// in-process dispatch without one must not build them.
	dispatch := func() { g.Dispatch(protocol.Query, c) }
	g.SetTrace(func(string, string, *xmltree.Node) {})
	traced := testing.AllocsPerRun(100, dispatch)
	g.SetTrace(nil)
	if untraced := testing.AllocsPerRun(100, dispatch); untraced >= traced {
		t.Errorf("allocations per local dispatch: %v without a tracer, %v with a no-op one — payloads are encoded for nobody", untraced, traced)
	}

	// The same holds for an opaque component: the eca:http-get tree per
	// input tuple and the log:answers tree per result row are the tracer's
	// alone. The service answers from a canned in-process transport, so the
	// counts hold no server goroutine's allocations.
	const tuples = 40
	g.SetClient(&http.Client{Transport: roundTripFunc(func(*http.Request) (*http.Response, error) {
		return &http.Response{StatusCode: http.StatusOK, Header: http.Header{}, Body: io.NopCloser(strings.NewReader("<r>1</r>"))}, nil
	})})
	in := bindings.NewRelation()
	for i := 0; i < tuples; i++ {
		in.Add(bindings.Tuple{"X": bindings.Num(float64(i))})
	}
	opaque := Component{
		Rule:     "r",
		Comp:     ruleml.Component{Kind: ruleml.QueryComponent, Opaque: true, Language: "x", Service: "http://opaque.invalid/q", Text: "q($X)"},
		Bindings: in,
	}
	lines = nil
	g.SetTrace(func(dir, peer string, payload *xmltree.Node) { lines = append(lines, dir) })
	if a, err := g.Dispatch(protocol.Query, opaque); err != nil || len(a.Rows) != tuples || len(lines) != 2*tuples {
		t.Fatalf("opaque dispatch: %d rows, %d trace lines, err %v", len(a.Rows), len(lines), err)
	}
	dispatch = func() { g.Dispatch(protocol.Query, opaque) }
	g.SetTrace(func(string, string, *xmltree.Node) {})
	traced = testing.AllocsPerRun(50, dispatch)
	g.SetTrace(nil)
	if untraced := testing.AllocsPerRun(50, dispatch); untraced > traced-2*tuples {
		t.Errorf("allocations per opaque dispatch of %d tuples: %v without a tracer, %v with a no-op one — payloads are encoded for nobody", tuples, untraced, traced)
	}
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

func TestEmptyBindingsSkipOpaqueCalls(t *testing.T) {
	calls := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls++
		fmt.Fprint(w, "<r/>")
	}))
	defer srv.Close()
	g := New()
	a, err := g.Dispatch(protocol.Query, Component{
		Rule:     "r",
		Comp:     ruleml.Component{Kind: ruleml.QueryComponent, Opaque: true, Language: "x", Service: srv.URL, Text: "q"},
		Bindings: bindings.NewRelation(),
	})
	if err != nil || calls != 0 || len(a.Rows) != 0 {
		t.Errorf("empty input should make no calls: calls=%d err=%v", calls, err)
	}
}

// TestConcurrentDispatchesReuseConnections: rounds of concurrent dispatches
// to one service reuse the connections the first round opened. Each round
// holds all of its requests inside the handler at once, so it needs one
// connection per request; a transport that keeps fewer idle connections
// per host than that redials the rest every round.
func TestConcurrentDispatchesReuseConnections(t *testing.T) {
	const rounds, concurrent = 3, 8
	var opened atomic.Int64
	var inside sync.WaitGroup
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		doc, err := xmltree.Parse(r.Body)
		if err != nil {
			http.Error(w, err.Error(), 400)
			return
		}
		req, err := protocol.DecodeRequest(doc)
		if err != nil {
			http.Error(w, err.Error(), 400)
			return
		}
		inside.Done()
		inside.Wait() // every request of the round is in flight
		fmt.Fprint(w, protocol.EncodeAnswers(protocol.NewAnswer(req.RuleID, req.Component, req.Bindings)).String())
	}))
	srv.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			opened.Add(1)
		}
	}
	srv.Start()
	defer srv.Close()
	g := New()
	g.Register(Descriptor{Language: "http://remote/", FrameworkAware: true, Endpoint: srv.URL})
	comp := Component{
		Rule:     "r",
		Comp:     ruleml.Component{Kind: ruleml.QueryComponent, ID: "query[1]", Language: "http://remote/", Expression: xmltree.NewElement("http://remote/", "q")},
		Bindings: bindings.NewRelation(bindings.MustTuple("P", bindings.Str("x"))),
	}
	for round := 0; round < rounds; round++ {
		inside.Add(concurrent)
		var done sync.WaitGroup
		for i := 0; i < concurrent; i++ {
			done.Add(1)
			go func() {
				defer done.Done()
				if _, err := g.Dispatch(protocol.Query, comp); err != nil {
					t.Error(err)
				}
			}()
		}
		done.Wait()
	}
	if n := opened.Load(); n > concurrent {
		t.Errorf("%d rounds of %d concurrent dispatches opened %d connections, want at most %d",
			rounds, concurrent, n, concurrent)
	}
}

// TestCompile: GRH.Compile uses the Compile of the processor Dispatch
// would resolve (the kind default for a component without a language),
// passes its error on, and compiles nothing for a pinned service, an
// unregistered language, a processor without Compile or one that does not
// accept the kind. The compiled form reaches the service on dispatch.
func TestCompile(t *testing.T) {
	g := New()
	var got any
	svc := ServiceFunc(func(req *protocol.Request) (*protocol.Answer, error) {
		got = req.Compiled
		return protocol.NewAnswer(req.RuleID, req.Component, req.Bindings), nil
	})
	compile := func(c ruleml.Component) (any, error) {
		if c.Text == "bad" {
			return nil, fmt.Errorf("bad expression")
		}
		return "compiled " + c.Text, nil
	}
	for _, d := range []Descriptor{
		{Language: "http://c/", Kinds: []ruleml.ComponentKind{ruleml.QueryComponent}, FrameworkAware: true, Local: svc, Compile: compile},
		{Language: "http://plain/", FrameworkAware: true, Local: svc},
	} {
		if err := g.Register(d); err != nil {
			t.Fatal(err)
		}
	}
	g.SetDefault(ruleml.QueryComponent, "http://c/")
	query := func(lang, service, text string) ruleml.Component {
		return ruleml.Component{Kind: ruleml.QueryComponent, ID: "query[1]", Language: lang, Opaque: true, Service: service, Text: text}
	}
	for _, c := range []struct {
		name string
		comp ruleml.Component
		want any
	}{
		{"language", query("http://c/", "", "q"), "compiled q"},
		{"kind default", query("", "", "q"), "compiled q"},
		{"pinned service", query("http://c/", "http://example.org/raw", "q"), nil},
		{"unregistered language: the kind default, as Dispatch", query("http://nobody/", "", "q"), "compiled q"},
		{"no Compile", query("http://plain/", "", "q"), nil},
		{"kind not accepted", ruleml.Component{Kind: ruleml.TestComponent, Language: "http://c/", Opaque: true, Text: "q"}, nil},
	} {
		if v, err := g.Compile(c.comp); err != nil || v != c.want {
			t.Errorf("%s: Compile = %v, %v; want %v", c.name, v, err, c.want)
		}
	}
	if v, err := g.Compile(query("http://c/", "", "bad")); err == nil || v != nil {
		t.Errorf("bad expression: Compile = %v, %v; want the language's error", v, err)
	}
	if _, err := g.Dispatch(protocol.Query, Component{Rule: "r", Comp: query("http://c/", "", "q"),
		Compiled: "kept", Bindings: bindings.NewRelation()}); err != nil || got != "kept" {
		t.Errorf("dispatch: service got Compiled %v (err %v), want the component's", got, err)
	}
}
