package eca_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/e2etest"
	"repro/internal/obs"
	"repro/internal/protocol"
)

// TestMultiTenantKillAndRestart is the multi-tenancy smoke test over the
// real binaries: ecad boots with -data-dir and a rate quota on one
// tenant, two tenants register rules that match the *same* event shape
// (ecactl -tenant for one, the ECA_TENANT environment variable for the
// other), and interleaved events must fire only within their own space.
// The quota-limited tenant is driven to a 429 quota_exceeded while the
// other tenant keeps admitting, then the daemon is SIGKILLed and
// restarted over the same data dir: both tenants' rules must recover
// into their own spaces and fresh events must again fire tenant-locally.
//
// Set ECA_E2E_TENANT_DATADIR to pin the data dir to a known path (CI
// uses this to archive the journal on failure); by default a temp dir.
func TestMultiTenantKillAndRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	_, ecactl := e2etest.Binaries(t)

	dataDir := os.Getenv("ECA_E2E_TENANT_DATADIR")
	if dataDir == "" {
		dataDir = filepath.Join(dir, "data")
	} else if err := os.RemoveAll(dataDir); err != nil {
		t.Fatal(err)
	}

	addr := e2etest.FreeAddr(t)
	base := "http://" + addr
	var daemon *e2etest.Daemon // the current life
	startDaemon := func() {
		t.Helper()
		// rate=0.001,burst=2 admits exactly two acme events per process
		// lifetime as far as this test is concerned: replenishment is a
		// token every ~17 minutes, far beyond the test horizon.
		daemon = e2etest.Start(t, addr, "-data-dir", dataDir,
			"-fsync", "always", "-log-format", "json",
			"-tenant-quotas", "acme:rate=0.001,burst=2")
	}
	get := func(path string) (int, string) { return daemon.Get(path) }
	postEvent := func(tenant, xml string) (int, string) {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, base+"/events", strings.NewReader(xml))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/xml")
		if tenant != "" {
			req.Header.Set(protocol.TenantHeader, tenant)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, string(body)
	}
	// completedRules fetches the completed instances visible in one
	// tenant's trace space and returns their rule ids.
	completedRules := func(tenant string) []string {
		t.Helper()
		code, body := get("/debug/traces?state=completed&limit=100&tenant=" + tenant)
		if code != 200 {
			t.Fatalf("/debug/traces?tenant=%s = %d: %s", tenant, code, body)
		}
		var list struct {
			Instances []obs.InstanceTrace `json:"instances"`
		}
		if err := json.Unmarshal([]byte(body), &list); err != nil {
			t.Fatalf("traces JSON: %v\n%s", err, body)
		}
		rules := make([]string, 0, len(list.Instances))
		for _, in := range list.Instances {
			rules = append(rules, in.Rule)
		}
		return rules
	}
	waitCompleted := func(tenant, rule string, n int) {
		t.Helper()
		e2etest.Eventually(t, fmt.Sprintf("tenant %s to complete %d × %q", tenant, n, rule), func() bool {
			rules := completedRules(tenant)
			for _, r := range rules {
				if r != rule {
					t.Fatalf("tenant %s fired foreign rule %q (want only %q)", tenant, r, rule)
				}
			}
			if len(rules) > n {
				t.Fatalf("tenant %s completed instances = %v, want %d × %q", tenant, rules, n, rule)
			}
			return len(rules) == n
		})
	}

	startDaemon()

	// Both tenants' rules match the same t:ping event shape, so any
	// isolation leak would fire the other tenant's rule too.
	ruleXML := func(id string) string {
		return `<eca:rule xmlns:eca="http://www.semwebtech.org/languages/2006/eca-ml" xmlns:t="http://t/" id="` + id + `">
		  <eca:event><t:ping x="$X"/></eca:event>
		  <eca:action><t:pong fired-by="` + id + `" x="$X"/></eca:action>
		</eca:rule>`
	}
	for tenant, id := range map[string]string{"acme": "r-acme", "beta": "r-beta"} {
		file := filepath.Join(dir, id+".xml")
		if err := os.WriteFile(file, []byte(ruleXML(id)), 0o644); err != nil {
			t.Fatal(err)
		}
		var cmd *exec.Cmd
		if tenant == "acme" {
			cmd = exec.Command(ecactl, "-s", base, "-tenant", tenant, "register", file)
		} else {
			// The other tenant goes through the ECA_TENANT env default so
			// the whole flag > env resolution chain is exercised end to end.
			cmd = exec.Command(ecactl, "-s", base, "register", file)
			cmd.Env = append(os.Environ(), "ECA_TENANT="+tenant)
		}
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("ecactl register (%s): %v\n%s", tenant, err, out)
		}
	}
	for tenant, want := range map[string]string{"acme": "r-acme", "beta": "r-beta"} {
		other := "r-beta"
		if tenant == "beta" {
			other = "r-acme"
		}
		_, body := get("/engine/rules?format=ids&tenant=" + tenant)
		if !strings.Contains(body, want) || strings.Contains(body, other) {
			t.Fatalf("tenant %s rule listing = %q, want only %s", tenant, body, want)
		}
	}

	// Interleave events: two per tenant admit, then acme's token bucket
	// is dry — its third event must be shed as quota_exceeded while
	// beta's third still admits.
	event := `<t:ping xmlns:t="http://t/" x="7"/>`
	for i, tenant := range []string{"acme", "beta", "acme", "beta"} {
		if code, body := postEvent(tenant, event); code != http.StatusOK {
			t.Fatalf("event %d (%s) = %d: %s", i, tenant, code, body)
		}
	}
	code, body := postEvent("acme", event)
	if code != http.StatusTooManyRequests {
		t.Fatalf("over-quota acme event = %d: %s", code, body)
	}
	var shed struct {
		Error  string `json:"error"`
		Tenant string `json:"tenant"`
		Reason string `json:"reason"`
	}
	if err := json.Unmarshal([]byte(body), &shed); err != nil {
		t.Fatalf("quota body JSON: %v\n%s", err, body)
	}
	if shed.Error != "quota_exceeded" || shed.Tenant != "acme" || shed.Reason != "rate" {
		t.Fatalf("quota body = %+v", shed)
	}
	if code, body := postEvent("beta", event); code != http.StatusOK {
		t.Fatalf("beta event after acme quota = %d: %s", code, body)
	}

	waitCompleted("acme", "r-acme", 2)
	waitCompleted("beta", "r-beta", 3)

	// The per-tenant admission and shed counters must reconcile with
	// what was actually accepted and rejected above.
	code, metrics := get("/metrics")
	if code != 200 {
		t.Fatalf("/metrics = %d", code)
	}
	assertSample := func(name string, labels []string, value string) {
		t.Helper()
		for _, line := range strings.Split(metrics, "\n") {
			if !strings.HasPrefix(line, name+"{") || !strings.HasSuffix(line, " "+value) {
				continue
			}
			ok := true
			for _, l := range labels {
				if !strings.Contains(line, l) {
					ok = false
				}
			}
			if ok {
				return
			}
		}
		t.Errorf("/metrics missing %s{%s} %s", name, strings.Join(labels, ","), value)
	}
	assertSample("events_admitted_total", []string{`tenant="acme"`}, "2")
	assertSample("events_admitted_total", []string{`tenant="beta"`}, "3")
	assertSample("events_shed_total", []string{`tenant="acme"`, `reason="quota"`}, "1")

	// Die hard: no shutdown hooks, recovery must come from the journal.
	daemon.Kill()
	startDaemon()

	// Both tenants' rules must have been replayed into their own spaces.
	for tenant, want := range map[string]string{"acme": "r-acme", "beta": "r-beta"} {
		other := "r-beta"
		if tenant == "beta" {
			other = "r-acme"
		}
		_, body := get("/engine/rules?format=ids&tenant=" + tenant)
		if !strings.Contains(body, want) || strings.Contains(body, other) {
			t.Fatalf("after restart, tenant %s rule listing = %q, want only %s", tenant, body, want)
		}
	}
	code, health := get("/healthz")
	if code != 200 {
		t.Fatalf("/healthz = %d", code)
	}
	var h struct {
		Tenants []struct {
			ID    string `json:"id"`
			Rules int    `json:"rules"`
		} `json:"tenants"`
	}
	if err := json.Unmarshal([]byte(health), &h); err != nil {
		t.Fatalf("healthz JSON: %v\n%s", err, health)
	}
	rulesByTenant := map[string]int{}
	for _, th := range h.Tenants {
		rulesByTenant[th.ID] = th.Rules
	}
	if rulesByTenant["acme"] != 1 || rulesByTenant["beta"] != 1 {
		t.Errorf("/healthz tenants = %+v", h.Tenants)
	}

	// Fresh traffic lands in the right space after recovery, and acme's
	// token bucket is back to its burst allowance.
	for _, tenant := range []string{"acme", "beta"} {
		if code, body := postEvent(tenant, event); code != http.StatusOK {
			t.Fatalf("post-restart event (%s) = %d: %s", tenant, code, body)
		}
	}
	waitCompleted("acme", "r-acme", 1)
	waitCompleted("beta", "r-beta", 1)
}
