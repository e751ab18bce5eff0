package obs

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestTracesHandlerIDLookup(t *testing.T) {
	h := NewHub()
	a := h.Traces().Begin("chain", 0)
	a.AddSpan(Span{Stage: "event"})
	a.AddSpan(Span{Stage: "query", Mode: "grh", Children: []Span{
		{Stage: "parse", Mode: "server"},
		{Stage: "evaluate", Mode: "server", TuplesOut: 2},
	}})
	a.Finish("completed")
	h.Traces().Begin("chain", 0).Finish("died")

	rec := httptest.NewRecorder()
	h.TracesHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces?id="+a.ID(), nil))
	if rec.Code != 200 {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body)
	}
	var tr InstanceTrace
	if err := json.Unmarshal(rec.Body.Bytes(), &tr); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, rec.Body)
	}
	if tr.ID != a.ID() || tr.State != "completed" || len(tr.Spans) != 2 {
		t.Fatalf("trace = %+v", tr)
	}
	if kids := tr.Spans[1].Children; len(kids) != 2 || kids[0].Mode != "server" || kids[1].TuplesOut != 2 {
		t.Errorf("stitched children = %+v", kids)
	}

	rec = httptest.NewRecorder()
	h.TracesHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces?id=chain%23999", nil))
	if rec.Code != 404 {
		t.Errorf("unknown id: status = %d, want 404", rec.Code)
	}
	// Regression: the 404 body is machine-readable JSON, not plain text.
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("unknown id: Content-Type = %q, want application/json", ct)
	}
	var errBody map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &errBody); err != nil {
		t.Fatalf("unknown id: body not JSON: %v\n%s", err, rec.Body)
	}
	if errBody["error"] != "trace not found" {
		t.Errorf("unknown id: body = %v, want {\"error\":\"trace not found\"}", errBody)
	}
}

func TestTracesHandlerLimitAndPretty(t *testing.T) {
	h := NewHub()
	for i := 0; i < 5; i++ {
		h.Traces().Begin(fmt.Sprintf("r%d", i), 0).Finish("completed")
	}

	rec := httptest.NewRecorder()
	h.TracesHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces?limit=2", nil))
	var resp tracesResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if len(resp.Instances) != 2 {
		t.Fatalf("limit=2 returned %d instances", len(resp.Instances))
	}
	// Newest first under ?limit.
	if resp.Instances[0].Rule != "r4" || resp.Instances[1].Rule != "r3" {
		t.Errorf("order = %s, %s; want r4, r3", resp.Instances[0].Rule, resp.Instances[1].Rule)
	}
	// Compact by default: no indented lines.
	if strings.Contains(rec.Body.String(), "\n  ") {
		t.Error("default output is indented; want compact")
	}

	rec = httptest.NewRecorder()
	h.TracesHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces?pretty=1", nil))
	if !strings.Contains(rec.Body.String(), "\n  ") {
		t.Error("?pretty=1 output not indented")
	}

	rec = httptest.NewRecorder()
	h.TracesHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces?limit=-1", nil))
	if rec.Code != 400 {
		t.Errorf("limit=-1: status = %d, want 400", rec.Code)
	}
	rec = httptest.NewRecorder()
	h.TracesHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces?limit=soon", nil))
	if rec.Code != 400 {
		t.Errorf("limit=soon: status = %d, want 400", rec.Code)
	}
}

// TestRecorderConcurrentEviction drives Begin/Finish far past capacity
// from many goroutines and checks the ring's invariants: exactly the
// newest Capacity() instances survive (ids carry the global sequence
// number, so "newest" is checkable exactly) and Recorded() is monotonic
// under concurrent readers.
func TestRecorderConcurrentEviction(t *testing.T) {
	const workers, perWorker = 8, 100
	r := NewRecorder(16)

	stopPoll := make(chan struct{})
	pollErr := make(chan error, 1)
	go func() {
		defer close(pollErr)
		var last uint64
		for {
			select {
			case <-stopPoll:
				return
			default:
			}
			now := r.Recorded()
			if now < last {
				pollErr <- fmt.Errorf("Recorded went backwards: %d after %d", now, last)
				return
			}
			last = now
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				inst := r.Begin(fmt.Sprintf("w%d", w), 0)
				inst.AddSpan(Span{Stage: "event"})
				inst.Finish("completed")
			}
		}(w)
	}
	wg.Wait()
	close(stopPoll)
	if err := <-pollErr; err != nil {
		t.Fatal(err)
	}

	total := workers * perWorker
	if got := r.Recorded(); got != uint64(total) {
		t.Fatalf("Recorded = %d, want %d", got, total)
	}
	snap := r.Snapshot()
	if len(snap) != r.Capacity() {
		t.Fatalf("retained %d, want capacity %d", len(snap), r.Capacity())
	}
	// Survivors must be exactly the instances with the highest sequence
	// numbers, in ascending (oldest-first) order.
	prev := 0
	for i, tr := range snap {
		_, seqStr, ok := strings.Cut(tr.ID, "#")
		if !ok {
			t.Fatalf("id %q not rule#n", tr.ID)
		}
		var seq int
		fmt.Sscanf(seqStr, "%d", &seq)
		if seq <= total-r.Capacity() {
			t.Errorf("snapshot[%d] = %s: evicted-range instance survived", i, tr.ID)
		}
		if seq <= prev {
			t.Errorf("snapshot not oldest-first: %d after %d", seq, prev)
		}
		prev = seq
		if tr.State != "completed" || len(tr.Spans) != 1 {
			t.Errorf("snapshot[%d] incomplete: %+v", i, tr)
		}
	}
}
