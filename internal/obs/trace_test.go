package obs

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestRecorderRingEviction(t *testing.T) {
	r := NewRecorder(4)
	for i := 0; i < 10; i++ {
		inst := r.Begin(fmt.Sprintf("r%d", i), 0)
		inst.AddSpan(Span{Stage: "event"})
		inst.Finish("completed")
	}
	if r.Recorded() != 10 {
		t.Errorf("recorded = %d, want 10", r.Recorded())
	}
	snap := r.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("retained = %d, want 4", len(snap))
	}
	// Oldest-first: the survivors are r6..r9.
	for i, tr := range snap {
		if want := fmt.Sprintf("r%d", 6+i); tr.Rule != want {
			t.Errorf("snapshot[%d].Rule = %q, want %q", i, tr.Rule, want)
		}
		if tr.State != "completed" || len(tr.Spans) != 1 {
			t.Errorf("snapshot[%d] = %+v", i, tr)
		}
	}
}

func TestRecorderIDsUnique(t *testing.T) {
	r := NewRecorder(8)
	a := r.Begin("rule", 0)
	b := r.Begin("rule", 0)
	if a.ID() == b.ID() {
		t.Errorf("duplicate instance ids: %q", a.ID())
	}
	if !strings.HasPrefix(a.ID(), "rule#") {
		t.Errorf("id = %q, want rule#N", a.ID())
	}
}

func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder(16)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				inst := r.Begin("r", 0)
				inst.AddSpan(Span{Stage: "query", TuplesIn: 1, TuplesOut: 1})
				inst.Finish("completed")
				_ = r.Snapshot()
			}
		}()
	}
	wg.Wait()
	if r.Recorded() != 1600 {
		t.Errorf("recorded = %d, want 1600", r.Recorded())
	}
	if got := len(r.Snapshot()); got != 16 {
		t.Errorf("retained = %d, want 16", got)
	}
}

func TestZeroCapacityRecorder(t *testing.T) {
	r := NewRecorder(0)
	inst := r.Begin("r", 0)
	if inst != nil {
		t.Error("zero-capacity recorder should return nil instances")
	}
	inst.AddSpan(Span{})
	inst.Finish("died")
	if len(r.Snapshot()) != 0 {
		t.Error("zero-capacity recorder retained traces")
	}
}

func TestTracesHandlerJSONAndFilters(t *testing.T) {
	h := NewHub()
	a := h.Traces().Begin("car-rental", 0)
	a.AddSpan(Span{Stage: "event", Component: "event[1]", TuplesOut: 1})
	a.AddSpan(Span{Stage: "query", Component: "query[1]", TuplesIn: 1, TuplesOut: 2})
	a.Finish("completed")
	b := h.Traces().Begin("other", 0)
	b.Finish("died")

	rec := httptest.NewRecorder()
	h.TracesHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces?rule=car-rental", nil))
	var resp tracesResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, rec.Body)
	}
	if resp.Recorded != 2 || len(resp.Instances) != 1 {
		t.Fatalf("resp = %+v", resp)
	}
	tr := resp.Instances[0]
	if tr.Rule != "car-rental" || tr.State != "completed" || len(tr.Spans) != 2 {
		t.Errorf("trace = %+v", tr)
	}
	if tr.Spans[0].Stage != "event" || tr.Spans[1].Stage != "query" || tr.Spans[1].TuplesOut != 2 {
		t.Errorf("spans = %+v", tr.Spans)
	}

	rec = httptest.NewRecorder()
	h.TracesHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces?state=died", nil))
	resp = tracesResponse{}
	json.Unmarshal(rec.Body.Bytes(), &resp)
	if len(resp.Instances) != 1 || resp.Instances[0].Rule != "other" {
		t.Errorf("state filter = %+v", resp.Instances)
	}
}

func TestMetricsHandler(t *testing.T) {
	h := NewHub()
	h.Metrics().Counter("x_total", "h").Add(7)
	rec := httptest.NewRecorder()
	h.MetricsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "x_total 7") {
		t.Errorf("metrics body = %q", rec.Body)
	}
}
