package engine_test

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"repro/internal/bindings"
	"repro/internal/engine"
	"repro/internal/grh"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/ruleml"
	"repro/internal/services"
)

// One engine serves every tenant: rules are keyed by (tenant, id), ids are
// minted per tenant, listings put the default tenant first, and a
// detection reaches only the rule of the tenant it is stamped with, whose
// dispatches, trace, journal records and engine_rules series carry that
// tenant.
func TestTenantsShareOneEngine(t *testing.T) {
	var mu sync.Mutex
	var actions []string // tenant/rule of every action dispatch
	g := grh.New()
	svc := grh.ServiceFunc(func(req *protocol.Request) (*protocol.Answer, error) {
		if req.Kind == protocol.Action {
			mu.Lock()
			actions = append(actions, req.Tenant+"/"+req.RuleID)
			mu.Unlock()
		}
		return &protocol.Answer{}, nil
	})
	for ns, kind := range map[string]ruleml.ComponentKind{
		services.MatcherNS: ruleml.EventComponent,
		services.ActionNS:  ruleml.ActionComponent,
	} {
		if err := g.Register(grh.Descriptor{Language: ns, Kinds: []ruleml.ComponentKind{kind}, FrameworkAware: true, Local: svc}); err != nil {
			t.Fatal(err)
		}
		g.SetDefault(kind, ns)
	}
	hub := obs.NewHub()
	j := &fakeJournal{}
	e := engine.New(g, engine.WithObs(hub), engine.WithJournal(j))

	for _, tn := range []string{"", "beta", "acme"} {
		if err := e.Add(tn, simpleRule(t, "r")); err != nil {
			t.Fatalf("Add(%q, r): %v", tn, err)
		}
	}
	if err := e.Add("acme", simpleRule(t, "r")); !errors.Is(err, engine.ErrDuplicateRule) {
		t.Fatalf("second acme/r: err = %v, want ErrDuplicateRule", err)
	}
	for _, tn := range []string{"acme", ""} {
		anon := simpleRule(t, "ignored")
		anon.ID = ""
		if err := e.Add(tn, anon); err != nil {
			t.Fatal(err)
		}
		if anon.ID != "rule-1" {
			t.Errorf("first id-less rule of %q = %q, want rule-1", tn, anon.ID)
		}
	}
	var listed []string
	for _, info := range e.RuleInfos() {
		listed = append(listed, info.Tenant+"/"+info.ID)
	}
	if got, want := strings.Join(listed, " "), "/r /rule-1 acme/r acme/rule-1 beta/r"; got != want {
		t.Errorf("listing = %q, want %q", got, want)
	}
	if got, want := strings.Join(j.tenants, ","), ",beta,acme,acme,"; got != want {
		t.Errorf("journaled tenants = %q, want %q", got, want)
	}
	rules := hub.Metrics().GaugeVec("engine_rules", "", "tenant")
	for tn, want := range map[string]float64{"": 2, "acme": 2, "beta": 1} {
		if got := rules.With(tn).Value(); got != want {
			t.Errorf("engine_rules{tenant=%q} = %v, want %v", tn, got, want)
		}
	}

	e.OnDetection(&protocol.Answer{RuleID: "r", Component: "event[1]", Tenant: "acme",
		Rows: []protocol.AnswerRow{{Tuple: bindings.MustTuple("X", bindings.Str("1"))}}})
	e.Wait()
	if got := strings.Join(actions, ","); got != "acme/r" {
		t.Errorf("action dispatches = %q, want acme/r only", got)
	}
	if traces := hub.Traces().Snapshot(); len(traces) != 1 || traces[0].Tenant != "acme" {
		t.Errorf("traces = %+v, want one for acme", traces)
	}
	if info, _ := e.RuleInfo("acme", "r"); info.Firings != 1 {
		t.Errorf("acme/r firings = %d, want 1", info.Firings)
	}
	if info, _ := e.RuleInfo("", "r"); info.Firings != 0 {
		t.Errorf("default r firings = %d, want 0", info.Firings)
	}

	if tn, ok := e.Find("r"); !ok || tn != "" {
		t.Errorf("Find(r) = %q, %v, want the default tenant", tn, ok)
	}
	if err := e.Unregister("", "r"); err != nil {
		t.Fatal(err)
	}
	if tn, ok := e.Find("r"); !ok || tn != "acme" {
		t.Errorf("Find(r) after removing the default's = %q, %v, want acme", tn, ok)
	}
	if err := e.Unregister("beta", "rule-1"); !errors.Is(err, engine.ErrNoRule) {
		t.Errorf("Unregister(beta, rule-1) = %v, want ErrNoRule", err)
	}
	if _, ok := e.Find("nope"); ok {
		t.Error("Find of an absent id reported a tenant")
	}
}
