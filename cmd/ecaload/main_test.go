package main

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestAwaitSettleWaitsForDetectorQueues: a daemon whose completion count
// has stopped moving is not drained while a detector partition still holds
// queued detection tasks.
func TestAwaitSettleWaitsForDetectorQueues(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Histogram("event_e2e_seconds", "E2E latency.", nil).Observe(0.01)
	reg.Gauge("events_pending", "Slots held.").Set(0)
	depth := reg.GaugeVec("snoop_partition_queue_depth", "Queued detection tasks.", "partition")
	depth.With("0").Set(0)
	depth.With("1").Set(3)
	scrapes := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if scrapes++; scrapes == 4 {
			depth.With("1").Set(0)
		}
		reg.WritePrometheus(w)
	}))
	defer srv.Close()

	exp, _, err := awaitSettle(srv.Client(), srv.URL, nil, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if q := exp.Sum("snoop_partition_queue_depth", nil); q != 0 {
		t.Errorf("settled after %d scrapes with %v detection tasks still queued", scrapes, q)
	}
}
