package engine_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/bindings"
	"repro/internal/engine"
	"repro/internal/grh"
	"repro/internal/protocol"
	"repro/internal/ruleml"
	"repro/internal/services"
	"repro/internal/system"
	"repro/internal/xmltree"
)

// failingService returns an error for every request of the given kind.
type failingService struct{ kind protocol.RequestKind }

func (f failingService) Handle(req *protocol.Request) (*protocol.Answer, error) {
	if req.Kind == f.kind {
		return nil, fmt.Errorf("synthetic %s failure", f.kind)
	}
	return &protocol.Answer{}, nil
}

func wiring(t *testing.T, queryFails, actionFails bool) (*engine.Engine, *[]string) {
	t.Helper()
	g := grh.New()
	var logLines []string
	ok := grh.ServiceFunc(func(req *protocol.Request) (*protocol.Answer, error) {
		return protocol.NewAnswer(req.RuleID, req.Component, req.Bindings), nil
	})
	reg := func(lang string, kind ruleml.ComponentKind, svc grh.Service) {
		if err := g.Register(grh.Descriptor{Language: lang, Kinds: []ruleml.ComponentKind{kind}, FrameworkAware: true, Local: svc}); err != nil {
			t.Fatal(err)
		}
	}
	reg(services.MatcherNS, ruleml.EventComponent, ok)
	if queryFails {
		reg(services.XQueryNS, ruleml.QueryComponent, failingService{protocol.Query})
	} else {
		reg(services.XQueryNS, ruleml.QueryComponent, ok)
	}
	if actionFails {
		reg(services.ActionNS, ruleml.ActionComponent, failingService{protocol.Action})
	} else {
		reg(services.ActionNS, ruleml.ActionComponent, ok)
	}
	g.SetDefault(ruleml.EventComponent, services.MatcherNS)
	g.SetDefault(ruleml.QueryComponent, services.XQueryNS)
	g.SetDefault(ruleml.ActionComponent, services.ActionNS)
	e := engine.New(g, engine.WithLogger(engine.LoggerFunc(func(format string, args ...any) {
		logLines = append(logLines, fmt.Sprintf(format, args...))
	})))
	return e, &logLines
}

const errRule = `<eca:rule xmlns:eca="http://www.semwebtech.org/languages/2006/eca-ml"
    xmlns:t="http://t/" xmlns:xq="http://www.semwebtech.org/languages/2006/xquery" id="err">
  <eca:event><t:e x="$X"/></eca:event>
  <eca:query binds="Y"><xq:query>irrelevant($X)</xq:query></eca:query>
  <eca:action><t:a x="$X"/></eca:action>
</eca:rule>`

func detect(e *engine.Engine) {
	e.OnDetection(&protocol.Answer{
		RuleID: "err",
		Rows:   []protocol.AnswerRow{{Tuple: bindings.MustTuple("X", bindings.Str("1"))}},
	})
}

func TestQueryFailureAbortsInstance(t *testing.T) {
	e, logs := wiring(t, true, false)
	if err := e.Register(ruleml.MustParse(errRule)); err != nil {
		t.Fatal(err)
	}
	detect(e)
	st := e.Stats()
	if st.InstancesDied != 1 || st.InstancesCompleted != 0 {
		t.Fatalf("stats = %+v", st)
	}
	joined := strings.Join(*logs, "\n")
	if !strings.Contains(joined, "instance aborted") {
		t.Errorf("logs lack abort notice:\n%s", joined)
	}
}

func TestActionFailureCountsAsDied(t *testing.T) {
	e, _ := wiring(t, false, true)
	if err := e.Register(ruleml.MustParse(errRule)); err != nil {
		t.Fatal(err)
	}
	detect(e)
	st := e.Stats()
	if st.InstancesDied != 1 || st.ActionRuns != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDetectionForUnknownRuleDropped(t *testing.T) {
	e, logs := wiring(t, false, false)
	e.OnDetection(&protocol.Answer{RuleID: "ghost", Rows: []protocol.AnswerRow{{Tuple: bindings.Tuple{}}}})
	if e.Stats().InstancesCreated != 0 {
		t.Error("ghost detection created an instance")
	}
	if !strings.Contains(strings.Join(*logs, "\n"), "unknown rule") {
		t.Error("drop not logged")
	}
}

func TestRegisterFailsWhenEventServiceUnavailable(t *testing.T) {
	g := grh.New() // nothing registered at all
	e := engine.New(g)
	err := e.Register(ruleml.MustParse(`<eca:rule xmlns:eca="` + protocol.ECANS + `" xmlns:t="http://t/" id="x">
	  <eca:event><t:e/></eca:event>
	  <eca:action><t:a/></eca:action>
	</eca:rule>`))
	if err == nil {
		t.Fatal("registration should fail without an event service")
	}
	// The failed rule must not linger.
	if len(e.Rules()) != 0 {
		t.Errorf("rules = %v", e.Rules())
	}
}

func TestRulesAndRuleState(t *testing.T) {
	sys, err := system.NewLocal(system.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"b-rule", "a-rule"} {
		r := ruleml.MustParse(`<eca:rule xmlns:eca="` + protocol.ECANS + `" xmlns:t="http://t/" id="` + id + `">
		  <eca:event><t:e/></eca:event>
		  <eca:action><t:a/></eca:action>
		</eca:rule>`)
		if err := sys.Engine.Register(r); err != nil {
			t.Fatal(err)
		}
	}
	if got := strings.Join(sys.Engine.Rules(), ","); got != "a-rule,b-rule" {
		t.Errorf("rules = %q (sorted)", got)
	}
	sys.Stream.Publish(eventsNew(xmltree.NewElement("http://t/", "e")))
	rs, ok := sys.Engine.RuleState("", "a-rule")
	if !ok || rs.Firings != 1 {
		t.Errorf("rule state = %+v, %v", rs, ok)
	}
	if _, ok := sys.Engine.RuleState("", "nope"); ok {
		t.Error("unknown rule state should be absent")
	}
}

// TestMultiRowDetectionCreatesInstances: one detection message with N
// answer tuples creates N independent rule instances (Fig. 6: "one or more
// instances … according to the number of answer elements").
func TestMultiRowDetectionCreatesInstances(t *testing.T) {
	e, _ := wiring(t, false, false)
	rule := ruleml.MustParse(`<eca:rule xmlns:eca="` + protocol.ECANS + `" xmlns:t="http://t/" id="err">
	  <eca:event><t:e x="$X"/></eca:event>
	  <eca:action><t:a x="$X"/></eca:action>
	</eca:rule>`)
	if err := e.Register(rule); err != nil {
		t.Fatal(err)
	}
	e.OnDetection(&protocol.Answer{
		RuleID: "err",
		Rows: []protocol.AnswerRow{
			{Tuple: bindings.MustTuple("X", bindings.Str("1"))},
			{Tuple: bindings.MustTuple("X", bindings.Str("2"))},
			{Tuple: bindings.MustTuple("X", bindings.Str("3"))},
		},
	})
	st := e.Stats()
	if st.InstancesCreated != 3 || st.InstancesCompleted != 3 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestAutoAssignedRuleIDs: rules without ids get rule-N.
func TestAutoAssignedRuleIDs(t *testing.T) {
	sys, err := system.NewLocal(system.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		r := ruleml.MustParse(`<eca:rule xmlns:eca="` + protocol.ECANS + `" xmlns:t="http://t/">
		  <eca:event><t:e/></eca:event>
		  <eca:action><t:a/></eca:action>
		</eca:rule>`)
		if err := sys.Engine.Register(r); err != nil {
			t.Fatal(err)
		}
		if r.ID == "" {
			t.Fatal("no id assigned")
		}
	}
	if got := strings.Join(sys.Engine.Rules(), ","); got != "rule-1,rule-2" {
		t.Errorf("auto ids = %q", got)
	}
}

// TestCustomEngineAnalyzer: a language's compiled form is the analysis of
// its components: a variable it reports it binds may be used later, and
// only the variables it reports it uses travel to it.
func TestCustomEngineAnalyzer(t *testing.T) {
	sys, err := system.NewLocal(system.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var sent []bindings.Tuple
	if err := sys.GRH.Register(grh.Descriptor{Language: "http://lp/", Kinds: []ruleml.ComponentKind{ruleml.QueryComponent}, FrameworkAware: true,
		Local: grh.ServiceFunc(func(req *protocol.Request) (*protocol.Answer, error) {
			a := &protocol.Answer{RuleID: req.RuleID, Component: req.Component}
			for _, tu := range req.Bindings.Tuples() {
				sent = append(sent, tu)
				a.Rows = append(a.Rows, protocol.AnswerRow{Tuple: tu.Merge(bindings.Tuple{"Anything": bindings.Str("a")})})
			}
			return a, nil
		}),
		Compile: func(ruleml.Component) (any, error) { return lpForm{}, nil },
	}); err != nil {
		t.Fatal(err)
	}
	r := ruleml.MustParse(`<eca:rule xmlns:eca="` + protocol.ECANS + `"
	    xmlns:t="http://t/" xmlns:lp="http://lp/" id="c">
	  <eca:event><t:e x="$X" y="$Y"/></eca:event>
	  <eca:query><lp:q/></eca:query>
	  <eca:action><t:a x="$Anything"/></eca:action>
	</eca:rule>`)
	if err := sys.Engine.Register(r); err != nil {
		t.Fatalf("the form binds $Anything: %v", err)
	}
	sys.Engine.OnDetection(&protocol.Answer{RuleID: "c", Component: "event[1]", Rows: []protocol.AnswerRow{
		{Tuple: bindings.Tuple{"X": bindings.Str("x"), "Y": bindings.Str("y")}},
	}})
	if st := sys.Engine.Stats(); st.InstancesCompleted != 1 {
		t.Fatalf("stats = %+v, want 1 completed instance", st)
	}
	if len(sent) != 1 || len(sent[0]) != 1 || sent[0]["X"].AsString() != "x" {
		t.Errorf("query received %v, want the projection on X", sent)
	}
}

// lpForm is a compiled form that binds Anything and uses X.
type lpForm struct{}

func (lpForm) Binds() []string { return []string{"Anything"} }
func (lpForm) Uses() []string  { return []string{"X"} }

// TestAnalyzerRunsOnceAtRegistration: each component is compiled and
// analysed once, when the rule registers; rule instances carry the form and
// project their step inputs from the plan made then. A form that reports
// no variables is scanned, so the query's $X is what travels.
func TestAnalyzerRunsOnceAtRegistration(t *testing.T) {
	sys, err := system.NewLocal(system.Config{})
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	var sent []bindings.Tuple
	var forms []any
	g := sys.GRH
	if err := g.Register(grh.Descriptor{Language: "http://q/", Kinds: []ruleml.ComponentKind{ruleml.QueryComponent}, FrameworkAware: true,
		Local: grh.ServiceFunc(func(req *protocol.Request) (*protocol.Answer, error) {
			sent = append(sent, req.Bindings.Tuples()...)
			forms = append(forms, req.Compiled)
			return protocol.NewAnswer(req.RuleID, req.Component, req.Bindings), nil
		}),
		Compile: func(c ruleml.Component) (any, error) {
			calls++
			return c.Expression.TextContent(), nil
		}}); err != nil {
		t.Fatal(err)
	}
	e := engine.New(g)
	r := ruleml.MustParse(`<eca:rule xmlns:eca="` + protocol.ECANS + `"
	    xmlns:t="http://t/" xmlns:q="http://q/" id="once">
	  <eca:event><t:e x="$X" y="$Y"/></eca:event>
	  <eca:query><q:q>$X</q:q></eca:query>
	  <eca:action><t:a x="$X" y="$Y"/></eca:action>
	</eca:rule>`)
	if err := e.Register(r); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("query compiled %d times registering, want 1", calls)
	}
	for i := 0; i < 3; i++ {
		e.OnDetection(&protocol.Answer{RuleID: "once", Component: "event[1]", Rows: []protocol.AnswerRow{
			{Tuple: bindings.Tuple{"X": bindings.Str(fmt.Sprint(i)), "Y": bindings.Str("y")}},
		}})
	}
	if calls != 1 {
		t.Errorf("query compiled %d more times for 3 events, want 0", calls-1)
	}
	for _, f := range forms {
		if f != "$X" {
			t.Errorf("query dispatched with form %v, want the registered one", f)
		}
	}
	if st := e.Stats(); st.InstancesCompleted != 3 {
		t.Fatalf("stats = %+v, want 3 completed instances", st)
	}
	// The query uses $X only, so only $X travels to it.
	if len(sent) != 3 {
		t.Fatalf("query received %d tuples, want 3", len(sent))
	}
	for _, tu := range sent {
		if vars := tu.Vars(); len(vars) != 1 || vars[0] != "X" {
			t.Errorf("query received %v, want the projection on X", tu)
		}
	}
}
