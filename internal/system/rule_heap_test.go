package system_test

// What a registered rule keeps: rulescale_match-shaped atomic rules
// registered through Mux, and the live heap they leave behind.
//
//	go test -run '^$' -bench RegisterRule -benchmem ./internal/system/

import (
	"bytes"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/ruleml"
	"repro/internal/system"
)

// scaleRule is the i-th rule of the rulescale_match workload's shape: ten
// rules per event name, told apart by one attribute literal.
func scaleRule(i int) string {
	n, v := i/10, i%10
	id := fmt.Sprintf("m%04d-%d", n, v)
	return fmt.Sprintf(`<eca:rule xmlns:eca=%q xmlns:b=%q id=%q>`+
		`<eca:event><b:e%04d kind="v%d" seq="$Seq"/></eca:event>`+
		`<eca:action><b:fired rule=%q seq="$Seq"/></eca:action></eca:rule>`,
		protocol.ECANS, benchNS, id, n, v, id)
}

// scaleSystem is the system ecad builds without -data-dir: metrics and
// traces on, logging at error level.
func scaleSystem(tb testing.TB) *system.System {
	tb.Helper()
	sys, err := system.NewLocal(system.Config{Obs: obs.NewHub(), Log: obs.NewLogger(&bytes.Buffer{}, "text", slog.LevelError)})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(sys.Close)
	return sys
}

// liveHeap is the heap still reachable after two collections.
func liveHeap() uint64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// maxRuleHeap bounds the live heap one registered rule of the
// rulescale_match shape keeps, in bytes. A rule keeps its plan, its
// detached step and action expressions, one compact event pattern and one
// matcher record: about 1.34 KB with Go 1.24. The bound leaves over 300 B
// for another Go release's map layout; Go 1.22's was not measured. A rule
// whose pattern kept one allocation per element, literal and bind list,
// beside a matcher copy of its Detector, kept about 1.64 KB; one that kept
// its parsed document, through Rule.Doc or through an expression still
// attached to it, kept about 2.5 KB.
const maxRuleHeap = 1700

// TestRuleRetainedHeap registers rulescale_match-shaped rules through
// POST /engine/rules and bounds the live heap each one keeps.
func TestRuleRetainedHeap(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds shadow memory to every allocation")
	}
	const rules = 2000
	sys := scaleSystem(t)
	mux := sys.Mux(nil, nil)
	docs := make([]string, rules)
	for i := range docs {
		docs[i] = scaleRule(i)
	}
	before := liveHeap()
	for _, doc := range docs {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/engine/rules", strings.NewReader(doc)))
		if rec.Code != http.StatusOK {
			t.Fatalf("POST /engine/rules = %d %s", rec.Code, rec.Body)
		}
	}
	perRule := float64(liveHeap()-before) / rules
	runtime.KeepAlive(mux)
	runtime.KeepAlive(docs)
	if got := sys.Matcher.Registrations(); got != rules {
		t.Fatalf("%d registrations, want %d", got, rules)
	}
	t.Logf("%.0f B of live heap per rule", perRule)
	if perRule > maxRuleHeap {
		t.Fatalf("%.0f B of live heap per rule, limit %d", perRule, maxRuleHeap)
	}
}

// BenchmarkRegisterRule parses and adds one rulescale_match-shaped rule per
// iteration, and reports the live heap the registered rules keep.
func BenchmarkRegisterRule(b *testing.B) {
	sys := scaleSystem(b)
	docs := make([]string, b.N)
	for i := range docs {
		docs[i] = scaleRule(i)
	}
	before := liveHeap()
	b.ReportAllocs()
	b.ResetTimer()
	for _, doc := range docs {
		rule, err := ruleml.ParseString(doc)
		if err != nil {
			b.Fatal(err)
		}
		if err := sys.Engine.Add("", rule); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(liveHeap()-before)/float64(b.N), "retained-B/rule")
	runtime.KeepAlive(docs)
}
