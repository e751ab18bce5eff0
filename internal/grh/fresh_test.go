package grh

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/bindings"
	"repro/internal/protocol"
	"repro/internal/ruleml"
	"repro/internal/xmltree"
)

// stateService answers a query for each input tuple with the query text,
// variables substituted, tagged with the service's data state — so an
// answer computed against an older state, served to the wrong request or
// cut short shows as wrong rows. It counts the calls it receives: local
// Handle calls, aware POSTs and opaque GETs alike.
type stateService struct {
	state atomic.Int64
	calls atomic.Int64
}

func (s *stateService) result(q string, t bindings.Tuple) bindings.Value {
	return bindings.Str(fmt.Sprintf("%s@%d", SubstituteVars(q, t), s.state.Load()))
}

// Handle evaluates the expression's text (the eca:opaque wrapper's text
// for opaque components) once per input tuple.
func (s *stateService) Handle(req *protocol.Request) (*protocol.Answer, error) {
	s.calls.Add(1)
	q := strings.TrimSpace(req.Expression.TextContent())
	a := &protocol.Answer{RuleID: req.RuleID, Component: req.Component}
	for _, t := range req.Bindings.Tuples() {
		a.Rows = append(a.Rows, protocol.AnswerRow{Tuple: t, Results: []bindings.Value{s.result(q, t)}})
	}
	return a, nil
}

// ServeHTTP is the same service over the wire: framework-aware on POST,
// framework-unaware on GET (one substituted query per request).
func (s *stateService) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodGet {
		s.calls.Add(1)
		fmt.Fprintf(w, "%s@%d", r.URL.Query().Get("query"), s.state.Load())
		return
	}
	doc, err := xmltree.Parse(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	req, err := protocol.DecodeRequest(doc)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	a, _ := s.Handle(req)
	fmt.Fprint(w, protocol.EncodeAnswers(a).String())
}

func stateRelation(n int) *bindings.Relation {
	r := bindings.NewRelation()
	for i := 0; i < n; i++ {
		r.Add(bindings.MustTuple(
			"K", bindings.Str(fmt.Sprintf("k%d", i%7)),
			"V", bindings.Str(fmt.Sprintf("v%d", i)),
		))
	}
	return r
}

// canonicalRows renders an answer's rows as a sorted multiset, the
// order-insensitive form two evaluations of one query must agree on.
func canonicalRows(a *protocol.Answer) []string {
	out := make([]string, 0, len(a.Rows))
	for _, row := range a.Rows {
		parts := []string{row.Tuple.String()}
		for _, r := range row.Results {
			parts = append(parts, r.String())
		}
		out = append(out, strings.Join(parts, "|"))
	}
	sort.Strings(out)
	return out
}

// TestDispatchFreshOnEveryRoute: whichever way the GRH reaches a query
// service — in-process Handle, aware HTTP POST, per-tuple opaque GET to a
// uri-addressed or to a registered unaware service, or opaque text wrapped
// for a registered aware service — every dispatch reaches the service and
// its answer reflects the service's data as it is at that moment (§4.3–4.4).
// A repeated query after the data changed sees the change, and identical
// concurrent queries each reach the service. The answer carries exactly
// one row per input tuple, addressed to the dispatching component, across
// a spread of relation sizes.
func TestDispatchFreshOnEveryRoute(t *testing.T) {
	const (
		localLang   = "http://test/fresh/local"
		awareLang   = "http://test/fresh/aware"
		unawareLang = "http://test/fresh/unaware"
		query       = "$V"
	)
	routes := []struct {
		name    string
		perCall bool // one service call per dispatch; otherwise one per tuple
		comp    func(endpoint string) ruleml.Component
	}{
		{"local", true, func(string) ruleml.Component {
			return ruleml.Component{Language: localLang, Expression: queryExpr(localLang, query)}
		}},
		{"aware", true, func(string) ruleml.Component {
			return ruleml.Component{Language: awareLang, Expression: queryExpr(awareLang, query)}
		}},
		{"opaque-uri", false, func(endpoint string) ruleml.Component {
			return ruleml.Component{Opaque: true, Language: "unregistered-lang", Service: endpoint, Text: query}
		}},
		{"opaque-registered", false, func(string) ruleml.Component {
			return ruleml.Component{Opaque: true, Language: unawareLang, Text: query}
		}},
		{"opaque-text-local", true, func(string) ruleml.Component {
			return ruleml.Component{Opaque: true, Language: localLang, Text: query}
		}},
	}
	for _, route := range routes {
		for _, mode := range []string{"once", "repeat", "concurrent"} {
			for _, n := range []int{0, 1, 2, 7, 63, 64, 65, 130} {
				t.Run(fmt.Sprintf("route=%s/mode=%s/n=%d", route.name, mode, n), func(t *testing.T) {
					svc := &stateService{}
					srv := httptest.NewServer(svc)
					defer srv.Close()
					g := New()
					for _, d := range []Descriptor{
						{Language: localLang, FrameworkAware: true, Local: svc},
						{Language: awareLang, FrameworkAware: true, Endpoint: srv.URL},
						{Language: unawareLang, Endpoint: srv.URL},
					} {
						if err := g.Register(d); err != nil {
							t.Fatal(err)
						}
					}
					comp := route.comp(srv.URL)
					comp.Kind, comp.ID = ruleml.QueryComponent, "query[1]"
					c := Component{Rule: "r", Comp: comp, Bindings: stateRelation(n)}

					// want renders the rows a query evaluated against data
					// state s must produce.
					want := func(s int64) []string {
						a := &protocol.Answer{}
						for _, tup := range c.Bindings.Tuples() {
							a.Rows = append(a.Rows, protocol.AnswerRow{
								Tuple:   tup,
								Results: []bindings.Value{bindings.Str(fmt.Sprintf("%s@%d", SubstituteVars(query, tup), s))},
							})
						}
						return canonicalRows(a)
					}
					check := func(got *protocol.Answer, s int64) {
						t.Helper()
						if got.RuleID != "r" || got.Component != "query[1]" {
							t.Errorf("answer addressed to %s/%s, want r/query[1]", got.RuleID, got.Component)
						}
						wr, gr := want(s), canonicalRows(got)
						if len(wr) != len(gr) {
							t.Fatalf("%d rows, want %d", len(gr), len(wr))
						}
						for i := range wr {
							if wr[i] != gr[i] {
								t.Fatalf("row %d differs:\ngot:  %s\nwant: %s", i, gr[i], wr[i])
							}
						}
					}
					dispatch := func() *protocol.Answer {
						t.Helper()
						a, err := g.Dispatch(protocol.Query, c)
						if err != nil {
							t.Fatal(err)
						}
						return a
					}

					per := int64(n) // service calls of one dispatch
					if route.perCall {
						per = 1
					}
					wantCalls := per
					switch mode {
					case "once":
						check(dispatch(), 0)
					case "repeat":
						check(dispatch(), 0)
						svc.state.Add(1) // an action changes the service's data
						check(dispatch(), 1)
						wantCalls = 2 * per
					case "concurrent":
						const callers = 4
						answers := make([]*protocol.Answer, callers)
						var wg sync.WaitGroup
						for i := range answers {
							wg.Add(1)
							go func(i int) {
								defer wg.Done()
								a, err := g.Dispatch(protocol.Query, c)
								if err != nil {
									t.Error(err)
								}
								answers[i] = a
							}(i)
						}
						wg.Wait()
						for _, a := range answers {
							if a != nil {
								check(a, 0)
							}
						}
						wantCalls = callers * per
					}
					if got := svc.calls.Load(); got != wantCalls {
						t.Errorf("service called %d times, want %d", got, wantCalls)
					}
				})
			}
		}
	}
}

func queryExpr(lang, text string) *xmltree.Node {
	e := xmltree.NewElement(lang, "q")
	e.AppendText(text)
	return e
}
