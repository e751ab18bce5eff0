package eca_test

import (
	"encoding/json"
	"net/url"
	"os/exec"
	"strings"
	"testing"

	"repro/internal/e2etest"
	"repro/internal/obs"
)

// TestDistributedTracingEndToEnd boots the real ecad binary in
// distributed mode with the car-rental scenario, fires a booking, and
// asserts the observability contract end to end: /metrics parses under
// the exposition-format linter (including the runtime gauges), and
// /debug/traces?id= returns the stitched trace whose remote dispatches
// carry server-side parse/evaluate/encode spans. This is the CI smoke
// test for distributed rule-instance tracing.
func TestDistributedTracingEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	_, ecactl := e2etest.Binaries(t)
	daemon := e2etest.Start(t, e2etest.FreeAddr(t), "-travel", "-distribute", "-log-format", "json", "-log-level", "debug")
	get := daemon.Get

	out, err := exec.Command(ecactl, "-s", daemon.Base, "book", "John Doe", "Munich", "Paris").CombinedOutput()
	if err != nil {
		t.Fatalf("ecactl book: %v\n%s", err, out)
	}

	// (a) /metrics parses cleanly under the exposition linter and carries
	// the runtime gauges and the new phase/queue families.
	code, metrics := get("/metrics")
	if code != 200 {
		t.Fatalf("/metrics = %d", code)
	}
	if _, err := obs.ParseExposition(strings.NewReader(metrics)); err != nil {
		t.Fatalf("/metrics fails exposition lint: %v", err)
	}
	for _, want := range []string{"go_goroutines", "go_heap_inuse_bytes", "service_phase_seconds_bucket"} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %s", want)
		}
	}

	// (b) find the booking instance (it completes asynchronously after
	// ecactl returns) and fetch its stitched trace by id.
	var id string
	e2etest.Eventually(t, "the booking instance to complete", func() bool {
		code, body := get("/debug/traces?state=completed&limit=1")
		if code != 200 {
			t.Fatalf("/debug/traces = %d", code)
		}
		var list struct {
			Instances []obs.InstanceTrace `json:"instances"`
		}
		if err := json.Unmarshal([]byte(body), &list); err != nil {
			t.Fatalf("traces JSON: %v\n%s", err, body)
		}
		if len(list.Instances) == 1 {
			id = list.Instances[0].ID
		}
		return id != ""
	})

	code, body := get("/debug/traces?id=" + url.QueryEscape(id))
	if code != 200 {
		t.Fatalf("/debug/traces?id=%s = %d: %s", id, code, body)
	}
	var tr obs.InstanceTrace
	if err := json.Unmarshal([]byte(body), &tr); err != nil {
		t.Fatalf("trace JSON: %v\n%s", err, body)
	}
	if tr.ID != id || tr.State != "completed" {
		t.Fatalf("trace = %+v", tr)
	}
	stitched := 0
	for _, sp := range tr.Spans {
		if sp.Mode != "grh" {
			continue
		}
		if len(sp.Children) == 0 {
			continue
		}
		stitched++
		phases := map[string]bool{}
		for _, c := range sp.Children {
			if c.Mode != "server" {
				t.Errorf("child of %s has mode %q, want server", sp.Component, c.Mode)
			}
			phases[c.Stage] = true
		}
		for _, p := range []string{"parse", "evaluate", "encode"} {
			if !phases[p] {
				t.Errorf("span %s missing server phase %s: %+v", sp.Component, p, sp.Children)
			}
		}
	}
	if stitched == 0 {
		t.Fatalf("no client span carries stitched server spans: %s", body)
	}
}
