package eca_test

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"repro/internal/domain/travel"
	"repro/internal/e2etest"
	"repro/internal/obs"
	"repro/internal/system"
)

// TestIngestEndToEnd is the ingest smoke test over the real ecad binary
// with every admission-path option on at once: a durable journal synced
// on every append and an admission limit. It posts 64 single car-rental
// bookings and two NDJSON batches of 32 from concurrent clients, waits
// until all 128 instances complete, and then checks exact counts: every
// event admitted, none shed, one batch-size observation per request, one
// notification per booking, no detection task left queued, and a
// lint-clean /metrics before and after. Nothing here depends on timing;
// the counts are the contract.
func TestIngestEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	const (
		singles   = 64
		batches   = 2
		batchSize = 32
		total     = singles + batches*batchSize
		producers = 8 // well below -max-pending-events, so nothing is shed
	)
	daemon := e2etest.Start(t, e2etest.FreeAddr(t), "-travel",
		"-data-dir", t.TempDir(), "-fsync", "always",
		"-max-pending-events", "64", "-log-format", "json")

	scrape := func() *obs.Exposition {
		t.Helper()
		code, body := daemon.Get("/metrics")
		if code != http.StatusOK {
			t.Fatalf("/metrics = %d", code)
		}
		if _, err := obs.ParseExposition(strings.NewReader(body)); err != nil {
			t.Fatalf("/metrics fails exposition lint: %v", err)
		}
		exp, err := obs.ParseExposition(strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return exp
	}
	scrape()

	booking := travel.Booking("John Doe", "Munich", "Paris").String()
	line, err := json.Marshal(booking)
	if err != nil {
		t.Fatal(err)
	}
	ndjson := strings.Repeat(string(line)+"\n", batchSize)
	post := func(contentType, body string) {
		resp, err := http.Post(daemon.Base+"/events", contentType, strings.NewReader(body))
		if err != nil {
			t.Error(err)
			return
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("POST /events (%s) = %d: %s", contentType, resp.StatusCode, msg)
		}
	}
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < singles/producers; i++ {
				post("application/xml", booking)
			}
		}()
	}
	for b := 0; b < batches; b++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			post("application/x-ndjson", ndjson)
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	var exp *obs.Exposition
	e2etest.Eventually(t, "every admitted booking to complete its instance", func() bool {
		exp = scrape()
		return exp.Sum("event_e2e_seconds_count", nil) >= total
	})
	for _, c := range []struct {
		name string
		want float64
	}{
		{"event_e2e_seconds_count", total},
		{"events_admitted_total", total},
		{"events_shed_total", 0},
		{"events_batch_size_count", singles + batches},
	} {
		if got := exp.Sum(c.name, nil); got != c.want {
			t.Errorf("%s = %v, want %v", c.name, got, c.want)
		}
	}

	code, body := daemon.Get("/healthz")
	if code != http.StatusOK {
		t.Fatalf("/healthz = %d", code)
	}
	var h system.Health
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatalf("healthz JSON: %v\n%s", err, body)
	}
	if h.Notifications != total {
		t.Errorf("notifications = %d, want %d", h.Notifications, total)
	}
	if h.Admission == nil || h.Admission.Pending != 0 || h.Admission.MaxPendingEvents != 64 {
		t.Errorf("admission section = %+v, want 0 pending of 64", h.Admission)
	}
}
