package engine_test

import (
	"sync"
	"testing"
	"time"

	"repro/internal/bindings"
	"repro/internal/engine"
	"repro/internal/grh"
	"repro/internal/protocol"
	"repro/internal/ruleml"
	"repro/internal/services"
)

// slowActionGRH wires a GRH whose action service sleeps briefly and
// counts executions, so drain tests have real in-flight work to wait on.
func slowActionGRH(t *testing.T, delay time.Duration) (*grh.GRH, func() int) {
	t.Helper()
	g := grh.New()
	var mu sync.Mutex
	executed := 0
	if err := g.Register(grh.Descriptor{
		Language:       services.ActionNS,
		Kinds:          []ruleml.ComponentKind{ruleml.ActionComponent},
		FrameworkAware: true,
		Local: grh.ServiceFunc(func(req *protocol.Request) (*protocol.Answer, error) {
			time.Sleep(delay)
			mu.Lock()
			executed += req.Bindings.Size()
			mu.Unlock()
			return &protocol.Answer{}, nil
		}),
	}); err != nil {
		t.Fatal(err)
	}
	if err := g.Register(grh.Descriptor{
		Language:       services.MatcherNS,
		Kinds:          []ruleml.ComponentKind{ruleml.EventComponent},
		FrameworkAware: true,
		Local: grh.ServiceFunc(func(*protocol.Request) (*protocol.Answer, error) {
			return &protocol.Answer{}, nil
		}),
	}); err != nil {
		t.Fatal(err)
	}
	g.SetDefault(ruleml.EventComponent, services.MatcherNS)
	g.SetDefault(ruleml.ActionComponent, services.ActionNS)
	return g, func() int {
		mu.Lock()
		defer mu.Unlock()
		return executed
	}
}

func simpleRule(t *testing.T, id string) *ruleml.Rule {
	t.Helper()
	return ruleml.MustParse(`<eca:rule xmlns:eca="` + protocol.ECANS + `" xmlns:t="http://t/" id="` + id + `">
	  <eca:event><t:e x="$X"/></eca:event>
	  <eca:action><t:a x="$X"/></eca:action>
	</eca:rule>`)
}

// TestCloseDrainsUnderLoad: Close must let every admitted instance run
// to completion while concurrent feeders keep hammering OnDetection, and
// every detection must be either fully evaluated or cleanly dropped —
// never half-run.
func TestCloseDrainsUnderLoad(t *testing.T) {
	g, executed := slowActionGRH(t, 200*time.Microsecond)
	e := engine.New(g)
	if err := e.Register(simpleRule(t, "drain")); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				e.OnDetection(&protocol.Answer{
					RuleID: "drain",
					Rows: []protocol.AnswerRow{
						{Tuple: bindings.MustTuple("X", bindings.Num(float64(w*1000+i)))},
					},
				})
			}
		}(w)
	}
	// Close while the feeders are still publishing.
	time.Sleep(2 * time.Millisecond)
	e.Close()
	wg.Wait()

	st := e.Stats()
	if st.InstancesCreated == 0 {
		t.Fatal("no instances admitted before Close — test proves nothing")
	}
	if st.InstancesCompleted+st.InstancesDied != st.InstancesCreated {
		t.Fatalf("drain incomplete: created=%d completed=%d died=%d",
			st.InstancesCreated, st.InstancesCompleted, st.InstancesDied)
	}
	if got := executed(); got != st.InstancesCompleted {
		t.Errorf("actions executed = %d, want %d (one per completed instance)", got, st.InstancesCompleted)
	}

	// Detections after Close are dropped, not queued.
	before := e.Stats().InstancesCreated
	e.OnDetection(&protocol.Answer{
		RuleID: "drain",
		Rows:   []protocol.AnswerRow{{Tuple: bindings.MustTuple("X", bindings.Num(1))}},
	})
	if after := e.Stats().InstancesCreated; after != before {
		t.Errorf("detection after Close created an instance (%d → %d)", before, after)
	}
}

// TestCloseIdempotentAndConcurrent: double and concurrent Close calls
// must all return only after the drain finished.
func TestCloseIdempotentAndConcurrent(t *testing.T) {
	g, _ := slowActionGRH(t, 100*time.Microsecond)
	e := engine.New(g)
	if err := e.Register(simpleRule(t, "twice")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		e.OnDetection(&protocol.Answer{
			RuleID: "twice",
			Rows:   []protocol.AnswerRow{{Tuple: bindings.MustTuple("X", bindings.Num(float64(i)))}},
		})
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.Close()
			st := e.Stats()
			if st.InstancesCompleted+st.InstancesDied != st.InstancesCreated {
				t.Errorf("Close returned before drain: %+v", st)
			}
		}()
	}
	wg.Wait()
	e.Close() // and once more, synchronously
}

// TestCloseSynchronousEngine: Close gates OnDetection and, with nothing in
// flight, returns immediately.
func TestCloseSynchronousEngine(t *testing.T) {
	g, executed := slowActionGRH(t, 0)
	e := engine.New(g)
	if err := e.Register(simpleRule(t, "sync")); err != nil {
		t.Fatal(err)
	}
	e.OnDetection(&protocol.Answer{
		RuleID: "sync",
		Rows:   []protocol.AnswerRow{{Tuple: bindings.MustTuple("X", bindings.Num(1))}},
	})
	e.Close()
	e.OnDetection(&protocol.Answer{
		RuleID: "sync",
		Rows:   []protocol.AnswerRow{{Tuple: bindings.MustTuple("X", bindings.Num(2))}},
	})
	if got := executed(); got != 1 {
		t.Errorf("executed = %d, want 1 (post-Close detection dropped)", got)
	}
	if st := e.Stats(); st.InstancesCreated != 1 {
		t.Errorf("stats = %+v", st)
	}
}
