package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// fakeFederation serves two successive /cluster/metrics expositions: the
// second scrape shows 10 more admitted events and one e2e completion on
// n1, nothing new on n2.
func fakeFederation(t *testing.T) *httptest.Server {
	t.Helper()
	expositions := make([]string, 0, 2)
	for _, extra := range []struct {
		admitted int64
		e2eObs   []float64
	}{{0, nil}, {10, []float64{0.25}}} {
		var parts []*obs.Exposition
		for _, node := range []string{"n1", "n2"} {
			reg := obs.NewRegistry()
			c := reg.Counter("events_admitted_total", "Events accepted.")
			c.Add(100)
			h := reg.Histogram("event_e2e_seconds", "E2E latency.", []float64{0.1, 0.5, 1})
			h.Observe(0.05)
			reg.Gauge("events_pending", "Slots held.").Set(3)
			if node == "n1" {
				c.Add(extra.admitted)
				for _, v := range extra.e2eObs {
					h.Observe(v)
				}
			}
			var buf bytes.Buffer
			reg.WritePrometheus(&buf)
			exp, err := obs.ParseExposition(&buf)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			exp.AddLabel("node", node)
			parts = append(parts, exp)
		}
		var buf bytes.Buffer
		obs.MergeExpositions(parts...).WritePrometheus(&buf)
		expositions = append(expositions, buf.String())
	}
	scrape := 0
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/cluster/metrics" {
			http.NotFound(w, r)
			return
		}
		body := expositions[len(expositions)-1]
		if scrape < len(expositions) {
			body = expositions[scrape]
		}
		scrape++
		w.Write([]byte(body))
	}))
}

func TestClusterTop(t *testing.T) {
	srv := fakeFederation(t)
	defer srv.Close()

	var out bytes.Buffer
	if err := clusterTop(&out, srv.URL, time.Millisecond, 1); err != nil {
		t.Fatalf("clusterTop: %v", err)
	}
	got := out.String()
	if !strings.Contains(got, "NODE") || !strings.Contains(got, "EV/S") {
		t.Fatalf("missing header:\n%s", got)
	}
	lines := strings.Split(strings.TrimSpace(got), "\n")
	if len(lines) != 3 {
		t.Fatalf("want header + 2 node rows, got:\n%s", got)
	}
	var n1, n2 string
	for _, l := range lines[1:] {
		switch {
		case strings.HasPrefix(l, "n1"):
			n1 = l
		case strings.HasPrefix(l, "n2"):
			n2 = l
		}
	}
	if n1 == "" || n2 == "" {
		t.Fatalf("missing node rows:\n%s", got)
	}
	// n1 gained one completion in the 0.1–0.5 bucket: its p95 interpolates
	// inside that bucket, n2 (no new completions) shows the placeholder.
	f1 := strings.Fields(n1)
	if f1[3] != "1" {
		t.Errorf("n1 completed column = %q, want 1 (row %q)", f1[3], n1)
	}
	if !strings.Contains(n1, "ms") && !strings.Contains(n1, "s") {
		t.Errorf("n1 p95 not a duration: %q", n1)
	}
	f2 := strings.Fields(n2)
	if f2[1] != "0.0" || f2[2] != "-" || f2[3] != "0" {
		t.Errorf("n2 idle row = %q, want zero rate and '-' p95", n2)
	}
	// The gauge is instantaneous, not a delta.
	if f1[4] != "3" || len(f1) != 5 {
		t.Errorf("n1 row = %q, want pending 3 in the last column", n1)
	}
}

func TestClusterTopScrapeError(t *testing.T) {
	srv := httptest.NewServer(http.NotFoundHandler())
	defer srv.Close()
	if err := clusterTop(&bytes.Buffer{}, srv.URL, time.Millisecond, 1); err == nil {
		t.Fatal("want error on 404 endpoint")
	}
}
