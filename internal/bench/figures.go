// Package bench is the figure-replay harness behind cmd/ecabench and the
// repository-level figure tests and benchmarks: it replays every figure of
// the paper (architecture artifacts and the car-rental message flows of
// Figs. 4–11). Performance is measured by the benchmark/ module, not here.
package bench

import (
	"fmt"
	"io"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"

	"repro/internal/domain/travel"
	"repro/internal/engine"
	"repro/internal/grh"
	"repro/internal/ontology"
	"repro/internal/rdf"
	"repro/internal/ruleml"
	"repro/internal/services"
	"repro/internal/system"
	"repro/internal/xmltree"
)

// Trace is one observed GRH message.
type Trace struct {
	Dir     string // "→" request, "←" answer
	Peer    string
	Payload string
}

// ScenarioRun is a fully traced execution of the running example.
type ScenarioRun struct {
	Traces    []Trace
	EngineLog []string
	Sc        *travel.Scenario
	Cleanup   func()
}

// RunScenario wires the car-rental scenario with tracing and publishes the
// paper's booking event.
func RunScenario() (*ScenarioRun, error) { return runScenario(nil) }

// runScenario is RunScenario, with prepare (when not nil) applied to the
// wired scenario before the booking.
func runScenario(prepare func(*travel.Scenario)) (*ScenarioRun, error) {
	run := &ScenarioRun{}
	var mu sync.Mutex
	cfg := system.Config{
		Logger: engine.LoggerFunc(func(format string, args ...any) {
			mu.Lock()
			run.EngineLog = append(run.EngineLog, fmt.Sprintf(format, args...))
			mu.Unlock()
		}),
		Trace: func(dir, peer string, payload *xmltree.Node) {
			mu.Lock()
			run.Traces = append(run.Traces, Trace{dir, peer, xmltree.Indent(payload).String()})
			mu.Unlock()
		},
	}
	sc, cleanup, err := travel.NewScenario(cfg)
	if err != nil {
		return nil, err
	}
	run.Sc = sc
	run.Cleanup = cleanup
	if prepare != nil {
		prepare(sc)
	}
	sc.Book("John Doe", "Munich", "Paris")
	return run, nil
}

// Figures returns the set of reproducible figure numbers.
func Figures() []int { return []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11} }

// RunFigures replays every figure to w, each under a banner: the output of
// ecabench -figs. A failed replay does not stop the others; fail receives
// its figure number and error.
func RunFigures(w io.Writer, fail func(n int, err error)) {
	for _, n := range Figures() {
		fmt.Fprintf(w, "\n════════ Figure %d ════════\n\n", n)
		if err := RunFigure(n, w); err != nil {
			fail(n, err)
		}
	}
}

// RunFigure reproduces one figure of the paper, writing the regenerated
// artifact or message flow to w.
func RunFigure(n int, w io.Writer) error {
	switch n {
	case 1:
		return fig1(w)
	case 2:
		return fig2(w)
	case 3:
		return fig3(w)
	case 4:
		return fig4(w)
	case 5, 6, 7, 8, 9, 10, 11:
		return figFlow(n, w)
	default:
		return fmt.Errorf("bench: no figure %d in the paper", n)
	}
}

// fig1 regenerates the rule-and-language ontology of Fig. 1: the sample
// rule and the registered languages as RDF resources, serialized as Turtle
// and validated.
func fig1(w io.Writer) error {
	sys, err := system.NewLocal(system.Config{})
	if err != nil {
		return err
	}
	g := ontology.Base()
	ontology.DescribeRegistry(g, sys.GRH)
	// The framework-unaware nodes of Figs. 9/10 are languages too: the
	// registry records their endpoints and that opaque mediation applies.
	ontology.DescribeLanguage(g, grh.Descriptor{
		Language:       services.XQueryNS + "-opaque",
		Name:           "raw XQuery/XPath HTTP nodes (framework-unaware)",
		Kinds:          []ruleml.ComponentKind{ruleml.QueryComponent},
		FrameworkAware: false,
		Endpoint:       "http://example.org/opaque",
	})
	rule, err := ruleml.ParseString(travel.RuleXML("http://example.org/opaque/store", "http://example.org/opaque/xquery"))
	if err != nil {
		return err
	}
	ontology.DescribeRule(g, rule)
	fmt.Fprintln(w, "# Fig. 1 — ECA rule components and languages as Semantic-Web resources")
	fmt.Fprintln(w, "# (the sample rule of Fig. 4 plus the registered component languages)")
	fmt.Fprintln(w)
	if err := rdf.WriteTurtle(w, g.Triples(), map[string]string{
		"eca":   ontology.NS,
		"rules": ontology.RulesNS,
		"rdfs":  rdf.RDFSNS,
		"rdf":   rdf.RDFNS,
		"xsd":   rdf.XSDNS,
	}); err != nil {
		return err
	}
	if err := ontology.Validate(g, rule.ID); err != nil {
		return err
	}
	fmt.Fprintf(w, "\n# ontology validation of rule %q: OK (every component uses a language of its family)\n", rule.ID)
	return nil
}

// fig2 regenerates the language hierarchy of Fig. 2.
func fig2(w io.Writer) error {
	sys, err := system.NewLocal(system.Config{})
	if err != nil {
		return err
	}
	g := ontology.Base()
	ontology.DescribeRegistry(g, sys.GRH)
	fmt.Fprintln(w, "# Fig. 2 — hierarchy of languages")
	fmt.Fprintln(w, "ECA Language: <event/> <query/> <test/> <action/>")
	for _, fam := range []struct {
		label string
		class rdf.Term
	}{
		{"Event languages", ontology.ClassEventLanguage},
		{"Query languages", ontology.ClassQueryLanguage},
		{"Test languages", ontology.ClassTestLanguage},
		{"Action languages", ontology.ClassActionLanguage},
	} {
		fmt.Fprintf(w, "├─ %s\n", fam.label)
		langs := ontology.LanguagesInFamily(g, fam.class)
		var names []string
		for _, l := range langs {
			names = append(names, l.Value)
		}
		sort.Strings(names)
		for _, n := range names {
			name := n
			if d, ok := sys.GRH.Lookup(n); ok && d.Name != "" {
				name = fmt.Sprintf("%s (%s)", d.Name, n)
			}
			fmt.Fprintf(w, "│   ├─ %s\n", name)
		}
	}
	fmt.Fprintln(w, "└─ Application domain: atomic events / literals / atomic actions")
	fmt.Fprintf(w, "    └─ travel domain (%s): booking, cancellation → inform\n", travel.NS)
	return nil
}

// fig3 regenerates the global service-oriented architecture: every service
// behind an HTTP endpoint, one booking routed entirely over the wire.
func fig3(w io.Writer) error {
	sc, cleanup, err := travel.NewScenario(system.Config{})
	if err != nil {
		return err
	}
	defer cleanup()
	srv := httptest.NewServer(sc.Mux(xmltree.MustParse(travel.ClassesXML), travel.Namespaces()))
	defer srv.Close()
	if err := sc.Distribute(srv.URL); err != nil {
		return err
	}
	rule, err := ruleml.ParseString(travel.RuleXML(sc.StoreURL, sc.XQueryURL))
	if err != nil {
		return err
	}
	rule.ID = "car-rental-distributed"
	if err := sc.Engine.Register(rule); err != nil {
		return err
	}
	sc.Notifier.Reset()
	sc.Book("John Doe", "Munich", "Paris")
	fmt.Fprintln(w, "# Fig. 3 — global service-oriented architecture (all services over HTTP)")
	fmt.Fprintf(w, "base URL: %s\n", srv.URL)
	for _, ep := range []string{
		"/services/matcher", "/services/snoop", "/services/xquery",
		"/services/datalog", "/services/test", "/services/action",
		"/opaque/store", "/opaque/xquery", "/engine/detect", "/engine/rules", "/events",
	} {
		fmt.Fprintf(w, "  endpoint %s\n", ep)
	}
	sent := sc.Notifier.Sent()
	fmt.Fprintf(w, "booking routed through the distributed deployment → %d notification(s)\n", len(sent))
	for _, s := range sent {
		fmt.Fprintf(w, "  %s\n", s.Message)
	}
	if len(sent) == 0 {
		return fmt.Errorf("fig3: distributed deployment produced no notifications")
	}
	return nil
}

// fig4 regenerates the sample rule document.
func fig4(w io.Writer) error {
	src := travel.RuleXML("http://example.org/opaque/store", "http://example.org/opaque/xquery")
	rule, err := ruleml.ParseString(src)
	if err != nil {
		return err
	}
	// Validated as registration does: each component compiled by its
	// language, the binding discipline checked on what the forms report.
	sys, err := system.NewLocal(system.Config{})
	if err != nil {
		return err
	}
	defer sys.Close()
	if _, _, err := sys.Engine.Analyze(rule); err != nil {
		return err
	}
	fmt.Fprintln(w, "# Fig. 4 — outline of the sample rule (parsed and validated)")
	fmt.Fprintln(w, src)
	fmt.Fprintf(w, "\n# structure: event=%s, steps=%d, actions=%d\n", rule.Event.ID, len(rule.Steps), len(rule.Actions))
	for _, c := range rule.Components() {
		varInfo := ""
		if c.Variable != "" {
			varInfo = fmt.Sprintf(" binds $%s", c.Variable)
		}
		mode := "marked-up"
		if c.Opaque {
			mode = "opaque"
		}
		fmt.Fprintf(w, "#   %-10s language=%-55s %s%s\n", c.ID, orDash(c.Language), mode, varInfo)
	}
	return nil
}

func orDash(s string) string {
	if s == "" {
		return "(domain-level, registry default)"
	}
	return s
}

// figFlow replays the message flows of Figs. 5–11 and prints the slice of
// the trace belonging to the requested figure.
func figFlow(n int, w io.Writer) error {
	run, err := RunScenario()
	if err != nil {
		return err
	}
	defer run.Cleanup()
	return replayFlow(n, w, run)
}

// replayFlow writes message-flow figure n (5–11) as run observed it.
func replayFlow(n int, w io.Writer, run *ScenarioRun) error {
	headers := map[int]string{
		5:  "# Fig. 5 — registration of the event component (engine → GRH → atomic matcher)",
		6:  "# Fig. 6 — detection of the event component (matcher → engine, instance creation)",
		7:  "# Fig. 7 — sending the first query component to the GRH (own cars)",
		8:  "# Fig. 8 — answer to the first query: two functional results → two tuples",
		9:  "# Fig. 9 — evaluation of the 2nd query against a framework-unaware service (per-tuple HTTP GET)",
		10: "# Fig. 10 — query against available cars, generating a log:answers structure",
		11: "# Fig. 11 — join semantics: only class-B tuples survive; one action per tuple",
	}
	fmt.Fprintln(w, headers[n])
	shown := 0
	switch n {
	case 5:
		shown = printTraces(w, run.Traces, func(t Trace) bool {
			return strings.Contains(t.Payload, `kind="register-event"`)
		})
	case 6:
		shown = printLog(w, run.EngineLog, "event", "instance created")
	case 7:
		shown = printTraces(w, run.Traces, func(t Trace) bool {
			return t.Dir == "→" && strings.Contains(t.Payload, `component="query[1]"`)
		})
	case 8:
		shown = printTraces(w, run.Traces, func(t Trace) bool {
			return t.Dir == "←" && t.Peer == "XQuery service"
		})
		shown += printLog(w, run.EngineLog, "after query[1]")
	case 9:
		shown = printTraces(w, run.Traces, func(t Trace) bool {
			return strings.Contains(t.Peer, run.Sc.StoreURL)
		})
		shown += printLog(w, run.EngineLog, "after query[2]")
	case 10:
		shown = printTraces(w, run.Traces, func(t Trace) bool {
			return strings.Contains(t.Peer, run.Sc.XQueryURL)
		})
	case 11:
		shown = printLog(w, run.EngineLog, "after query[3]", "action")
		for _, s := range run.Sc.Notifier.Sent() {
			fmt.Fprintf(w, "message sent: %s\n", s.Message)
		}
		if len(run.Sc.Notifier.Sent()) != 1 {
			return fmt.Errorf("fig%d: expected exactly one surviving tuple, got %d", n, len(run.Sc.Notifier.Sent()))
		}
	}
	if shown == 0 {
		return fmt.Errorf("fig%d: message flow replay produced no matching traffic", n)
	}
	return nil
}

func printTraces(w io.Writer, traces []Trace, keep func(Trace) bool) int {
	n := 0
	for _, t := range traces {
		if keep(t) {
			fmt.Fprintf(w, "%s %s\n%s\n\n", t.Dir, t.Peer, t.Payload)
			n++
		}
	}
	return n
}

func printLog(w io.Writer, lines []string, substrs ...string) int {
	n := 0
	for _, l := range lines {
		for _, s := range substrs {
			if strings.Contains(l, s) {
				fmt.Fprintln(w, l)
				n++
				break
			}
		}
	}
	return n
}
