package system

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// getHealth fetches /healthz, which answers 200 whether or not the node
// is ready, and decodes it.
func getHealth(t *testing.T, base string) Health {
	t.Helper()
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz status = %d, want 200", resp.StatusCode)
	}
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	return h
}

func TestReadyThreshold(t *testing.T) {
	for _, tc := range []struct{ max, want int }{
		{1, 1}, {2, 1}, {3, 2}, {10, 9}, {20, 18}, {100, 90},
	} {
		if got := readyThreshold(tc.max); got != tc.want {
			t.Errorf("readyThreshold(%d) = %d, want %d", tc.max, got, tc.want)
		}
	}
}

// TestHealthzReadinessDegrades fills the admission semaphore directly
// and watches /healthz flip: ready while pending is below 90% of
// -max-pending-events, degraded at or above it, ready again once slots
// drain — the load-balancer signal documented on Health.
func TestHealthzReadinessDegrades(t *testing.T) {
	sys, err := NewLocal(Config{MaxPendingEvents: 10})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(sys.Mux(nil, nil))
	defer srv.Close()

	check := func(wantReady bool, wantStatus string, wantPending int) {
		t.Helper()
		h := getHealth(t, srv.URL)
		if h.Ready != wantReady || h.Status != wantStatus {
			t.Fatalf("ready=%v status=%q, want ready=%v status=%q", h.Ready, h.Status, wantReady, wantStatus)
		}
		if h.Admission == nil {
			t.Fatal("admission section absent with -max-pending-events set")
		}
		if h.Admission.Pending != wantPending || h.Admission.MaxPendingEvents != 10 || h.Admission.ReadyThreshold != 9 {
			t.Fatalf("admission = %+v, want pending %d of 10, threshold 9", h.Admission, wantPending)
		}
	}

	check(true, "ok", 0)
	// Occupy slots up to just below the threshold: still ready.
	for i := 0; i < 8; i++ {
		sys.eventSlots <- struct{}{}
	}
	check(true, "ok", 8)
	// The 9th slot crosses 90% of the cap: degraded before any 429s
	// (the 10th slot would be the last one admitted).
	sys.eventSlots <- struct{}{}
	check(false, "degraded", 9)
	// Draining recovers readiness without a restart.
	<-sys.eventSlots
	check(true, "ok", 8)
}

// TestHealthzWithoutLimitAlwaysReady: no -max-pending-events means no
// admission section and a node that never degrades on pressure.
func TestHealthzWithoutLimitAlwaysReady(t *testing.T) {
	sys, err := NewLocal(Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(sys.Mux(nil, nil))
	defer srv.Close()
	if h := getHealth(t, srv.URL); !h.Ready || h.Status != "ok" || h.Admission != nil {
		t.Errorf("unlimited node healthz = ready=%v status=%q admission=%+v", h.Ready, h.Status, h.Admission)
	}
}

// TestHealthzStartingUntilStarted: a daemon marks its start-up, and until
// it clears the mark /healthz answers 200 with ready:false and status
// "starting" — even with admission idle — then flips to ready. The mark
// wins over degradation, and a System fresh from NewLocal is ready.
func TestHealthzStartingUntilStarted(t *testing.T) {
	sys, err := NewLocal(Config{MaxPendingEvents: 10})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(sys.Mux(nil, nil))
	defer srv.Close()

	check := func(wantReady bool, wantStatus string) {
		t.Helper()
		if h := getHealth(t, srv.URL); h.Ready != wantReady || h.Status != wantStatus {
			t.Fatalf("ready=%v status=%q, want ready=%v status=%q", h.Ready, h.Status, wantReady, wantStatus)
		}
	}

	check(true, "ok")
	sys.SetStarting(true)
	check(false, "starting")
	for i := 0; i < 9; i++ { // past the degradation threshold
		sys.eventSlots <- struct{}{}
	}
	check(false, "starting")
	sys.SetStarting(false)
	check(false, "degraded")
	for i := 0; i < 9; i++ {
		<-sys.eventSlots
	}
	check(true, "ok")
}
