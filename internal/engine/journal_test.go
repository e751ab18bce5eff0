package engine_test

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/grh"
	"repro/internal/protocol"
	"repro/internal/ruleml"
	"repro/internal/services"
	"repro/internal/xmltree"
)

// fakeJournal records the engine's durable hook calls.
type fakeJournal struct {
	mu         sync.Mutex
	registered []string
	tenants    []string // the tenant of each registration
	docs       map[string]*xmltree.Node
	removed    []string
}

func (j *fakeJournal) RuleRegistered(tenant, id string, doc *xmltree.Node, at time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.docs == nil {
		j.docs = map[string]*xmltree.Node{}
	}
	j.registered = append(j.registered, id)
	j.tenants = append(j.tenants, tenant)
	j.docs[id] = doc
	if at.IsZero() {
		panic("zero registration time")
	}
}

func (j *fakeJournal) RuleUnregistered(_, id string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.removed = append(j.removed, id)
}

func eventOnlyGRH(t *testing.T, failRegistration bool) *grh.GRH {
	t.Helper()
	g := grh.New()
	if err := g.Register(grh.Descriptor{
		Language:       services.MatcherNS,
		Kinds:          []ruleml.ComponentKind{ruleml.EventComponent},
		FrameworkAware: true,
		Local: grh.ServiceFunc(func(req *protocol.Request) (*protocol.Answer, error) {
			if failRegistration && req.Kind == protocol.RegisterEvent {
				return nil, errors.New("boom")
			}
			return &protocol.Answer{}, nil
		}),
	}); err != nil {
		t.Fatal(err)
	}
	g.SetDefault(ruleml.EventComponent, services.MatcherNS)
	return g
}

// The journal hook fires after a successful Register and Unregister, with
// the original rule document.
func TestJournalHookOnRegisterUnregister(t *testing.T) {
	j := &fakeJournal{}
	e := engine.New(eventOnlyGRH(t, false), engine.WithJournal(j))
	rule := simpleRule(t, "jr")
	if err := e.Register(rule); err != nil {
		t.Fatal(err)
	}
	if len(j.registered) != 1 || j.registered[0] != "jr" || j.docs["jr"] == nil {
		t.Fatalf("journal after register: %+v", j)
	}
	if err := e.Unregister("", "jr"); err != nil {
		t.Fatal(err)
	}
	if len(j.removed) != 1 || j.removed[0] != "jr" {
		t.Fatalf("journal after unregister: %+v", j.removed)
	}
}

// A registration the GRH rejects must not reach the journal — it never
// took effect.
func TestJournalNotCalledOnFailedRegistration(t *testing.T) {
	j := &fakeJournal{}
	e := engine.New(eventOnlyGRH(t, true), engine.WithJournal(j))
	if err := e.Register(simpleRule(t, "nope")); err == nil {
		t.Fatal("want registration error")
	}
	if len(j.registered) != 0 {
		t.Fatalf("journal recorded a failed registration: %+v", j.registered)
	}
}

// Auto-assigned ids must skip slots occupied by recovered rules: after
// "rule-1" and "rule-2" are restored with explicit ids, the next id-less
// registration gets "rule-3", not a duplicate-id error.
func TestAutoIDSkipsRecoveredSlots(t *testing.T) {
	e := engine.New(eventOnlyGRH(t, false))
	for _, id := range []string{"rule-1", "rule-2"} {
		if err := e.Register(simpleRule(t, id)); err != nil {
			t.Fatal(err)
		}
	}
	anon := simpleRule(t, "ignored")
	anon.ID = ""
	if err := e.Register(anon); err != nil {
		t.Fatal(err)
	}
	if anon.ID != "rule-3" {
		t.Errorf("assigned id = %q, want rule-3", anon.ID)
	}
}

// Registering a live id reports ErrDuplicateRule so durable deployments
// can treat a startup rule that was already recovered as benign.
func TestDuplicateRegistrationIsErrDuplicateRule(t *testing.T) {
	e := engine.New(eventOnlyGRH(t, false))
	if err := e.Register(simpleRule(t, "dup")); err != nil {
		t.Fatal(err)
	}
	err := e.Register(simpleRule(t, "dup"))
	if !errors.Is(err, engine.ErrDuplicateRule) {
		t.Fatalf("err = %v, want ErrDuplicateRule", err)
	}
}

// RuleInfos reports registration times and instance counters.
func TestRuleInfos(t *testing.T) {
	e := engine.New(eventOnlyGRH(t, false))
	if err := e.Register(simpleRule(t, "a")); err != nil {
		t.Fatal(err)
	}
	if err := e.Register(simpleRule(t, "b")); err != nil {
		t.Fatal(err)
	}
	old := time.Date(2024, 5, 1, 12, 0, 0, 0, time.UTC)
	e.SetRegistered("", "a", old)
	infos := e.RuleInfos()
	if len(infos) != 2 || infos[0].ID != "a" || infos[1].ID != "b" {
		t.Fatalf("infos = %+v", infos)
	}
	if !infos[0].Registered.Equal(old) {
		t.Errorf("a registered = %v, want %v", infos[0].Registered, old)
	}
	if infos[1].Registered.IsZero() {
		t.Error("b has zero registration time")
	}
}
