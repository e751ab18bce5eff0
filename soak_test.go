package eca_test

import (
	"fmt"
	"runtime"
	"testing"

	eca "repro"
	"repro/internal/protocol"
	"repro/internal/xmltree"
)

// TestSoakManyRulesManyEvents pushes 5 000 events through 100 rules (half
// matching, half not) twice and checks totals, then guards against state
// growth in the matcher, the engine bookkeeping, the binding relations and
// the notifier: the live heap after the second pass must be within 1 MB of
// the heap after the first, although the second pass runs 12 500 more
// actions.
func TestSoakManyRulesManyEvents(t *testing.T) {
	if testing.Short() {
		t.Skip("soak")
	}
	sys, err := eca.NewLocal(eca.Config{})
	if err != nil {
		t.Fatal(err)
	}
	const rules = 100
	for i := 0; i < rules; i++ {
		src := fmt.Sprintf(`<eca:rule xmlns:eca="%s" xmlns:t="http://t/" id="r%03d">
		  <eca:event><t:e%d x="$X"/></eca:event>
		  <eca:test>$X mod 2 = 0</eca:test>
		  <eca:action><t:a x="$X"/></eca:action>
		</eca:rule>`, protocol.ECANS, i, i%10) // 10 distinct event names
		rule, err := eca.ParseRule(src)
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.Engine.Register(rule); err != nil {
			t.Fatal(err)
		}
	}
	const eventsN = 5000
	publish := func() {
		for i := 0; i < eventsN; i++ {
			name := fmt.Sprintf("e%d", i%20) // half the names match no rule
			e := xmltree.NewElement("http://t/", name)
			e.SetAttr("", "x", fmt.Sprint(i))
			sys.Stream.Publish(eca.NewEvent(e))
		}
	}
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	publish()
	st := sys.Engine.Stats()
	// Each matching event (name e0..e9, 2500 of them) triggers 10 rules.
	wantInstances := 2500 * 10
	if st.InstancesCreated != wantInstances {
		t.Fatalf("instances = %d, want %d", st.InstancesCreated, wantInstances)
	}
	// Even x fires, odd dies at the test; events alternate parity per name
	// bucket, so exactly half fire.
	if st.InstancesCompleted != wantInstances/2 || st.InstancesDied != wantInstances/2 {
		t.Fatalf("completed/died = %d/%d, want %d/%d",
			st.InstancesCompleted, st.InstancesDied, wantInstances/2, wantInstances/2)
	}
	if got := sys.Notifier.Count(); got != wantInstances/2 {
		t.Fatalf("notifications = %d", got)
	}

	first := heap()
	publish()
	second := heap()
	if got := sys.Notifier.Count(); got != wantInstances {
		t.Fatalf("notifications after the second pass = %d, want %d", got, wantInstances)
	}
	t.Logf("live heap after the first pass %d KB, after the second %d KB", first>>10, second>>10)
	const slack = 1 << 20
	if second > first+slack {
		t.Fatalf("live heap grew %d KB over a second pass of %d events (first pass left %d KB, second %d KB)",
			(second-first)>>10, eventsN, first>>10, second>>10)
	}
}
