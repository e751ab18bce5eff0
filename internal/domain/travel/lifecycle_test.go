package travel

import (
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/system"
)

// TestLifecycleStageSumsReconcileWithE2E drives bookings through the
// real HTTP admission path (POST /events stamps the admission time the
// lifecycle clock starts from) and checks the SLO instrumentation
// end to end: every completed instance contributes one observation per
// lifecycle stage, the four contiguous stage sums reconcile with the
// event_e2e_seconds total within 10%, and the histogram's exemplar
// points at a recorded trace carrying the lifecycle span.
func TestLifecycleStageSumsReconcileWithE2E(t *testing.T) {
	hub := obs.NewHub()
	sc, cleanup, err := NewScenario(system.Config{Obs: hub})
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	srv := httptest.NewServer(sc.Mux(nil, Namespaces()))
	defer srv.Close()

	const n = 25
	booking := Booking("John Doe", "Munich", "Paris").String()
	for i := 0; i < n; i++ {
		resp, err := http.Post(srv.URL+"/events", "application/xml", strings.NewReader(booking))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST /events status = %d", resp.StatusCode)
		}
	}

	// Instances run synchronously on the handler goroutine here, but
	// with detector partition workers they would ack asynchronously — poll
	// until every completion is in the exposition rather than assuming.
	scrape := func() *obs.Exposition {
		t.Helper()
		resp, err := http.Get(srv.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		exp, err := obs.ParseExposition(resp.Body)
		if err != nil {
			t.Fatalf("parse /metrics: %v", err)
		}
		return exp
	}
	var exp *obs.Exposition
	deadline := time.Now().Add(5 * time.Second)
	for {
		exp = scrape()
		if exp.HistogramDist("event_e2e_seconds", nil).Count == n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("e2e completions never reached %d: %d", n, exp.HistogramDist("event_e2e_seconds", nil).Count)
		}
		time.Sleep(50 * time.Millisecond)
	}

	e2e := exp.HistogramDist("event_e2e_seconds", map[string]string{"rule": sc.Rule})
	if e2e.Count != n {
		t.Fatalf("event_e2e_seconds{rule=%q} count = %d, want %d", sc.Rule, e2e.Count, n)
	}
	var stageSum float64
	for _, stage := range []string{"admit", "detect", "dispatch", "action"} {
		d := exp.HistogramDist("event_lifecycle_seconds", map[string]string{"stage": stage})
		if d.Count != n {
			t.Fatalf("event_lifecycle_seconds{stage=%q} count = %d, want %d", stage, d.Count, n)
		}
		stageSum += d.Sum
	}
	if diff := math.Abs(stageSum - e2e.Sum); diff > 0.10*e2e.Sum {
		t.Errorf("stage sums %.6fs vs e2e %.6fs: off by %.1f%%, want within 10%%",
			stageSum, e2e.Sum, 100*diff/e2e.Sum)
	}

	// The histogram's exemplar must name a recorded trace, and that trace
	// must carry the lifecycle span with its four stage children — the
	// drill-down path from an SLO breach to the instance that caused it.
	ex, ok := hub.Metrics().HistogramVec("event_e2e_seconds", "", nil, "rule").With(sc.Rule).Exemplar()
	if !ok {
		t.Fatal("event_e2e_seconds carries no exemplar")
	}
	found := false
	for _, tr := range hub.Traces().Snapshot() {
		if tr.ID != ex.TraceID {
			continue
		}
		found = true
		if len(tr.Spans) == 0 {
			t.Fatalf("exemplar trace %s has no spans", tr.ID)
		}
		last := tr.Spans[len(tr.Spans)-1]
		if last.Stage != "lifecycle" || len(last.Children) != 4 {
			t.Errorf("exemplar trace %s last span = %s with %d children, want lifecycle with 4",
				tr.ID, last.Stage, len(last.Children))
		}
	}
	if !found {
		t.Errorf("exemplar trace id %q not in the recorder", ex.TraceID)
	}
}
