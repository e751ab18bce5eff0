package eca_test

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/e2etest"
	"repro/internal/store"
	"repro/internal/xmltree"
)

// TestDurableStoreKillAndRestart is the crash-recovery smoke test: it
// boots the real ecad binary with -data-dir, registers a rule through
// ecactl, SIGKILLs the daemon mid-flight, injects an orphaned
// (accepted-but-never-dispatched) event directly into the journal, and
// restarts over the same data dir. The restarted daemon must list the
// rule, replay the orphan into a completed instance, and expose the
// recovery counters on /metrics and the store section on /healthz.
//
// Set ECA_E2E_DATADIR to pin the data dir to a known path (CI uses this
// to archive the journal as an artifact); by default a temp dir is used.
func TestDurableStoreKillAndRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	_, ecactl := e2etest.Binaries(t)

	dataDir := os.Getenv("ECA_E2E_DATADIR")
	if dataDir == "" {
		dataDir = filepath.Join(dir, "data")
	} else {
		// A pinned dir may carry state from an earlier run; start clean so
		// the recovery counters below are deterministic.
		if err := os.RemoveAll(dataDir); err != nil {
			t.Fatal(err)
		}
	}

	addr := e2etest.FreeAddr(t)
	startDaemon := func() *e2etest.Daemon {
		t.Helper()
		return e2etest.Start(t, addr, "-data-dir", dataDir, "-fsync", "always", "-log-format", "json")
	}

	// First life: register a rule, confirm it is listed, then die hard.
	daemon := startDaemon()
	ruleFile := filepath.Join(dir, "rule.xml")
	ruleXML := `<eca:rule xmlns:eca="http://www.semwebtech.org/languages/2006/eca-ml" xmlns:t="http://t/" id="survivor">
	  <eca:event><t:ping x="$X"/></eca:event>
	  <eca:action><t:pong x="$X"/></eca:action>
	</eca:rule>`
	if err := os.WriteFile(ruleFile, []byte(ruleXML), 0o644); err != nil {
		t.Fatal(err)
	}
	if out, err := exec.Command(ecactl, "-s", daemon.Base, "register", ruleFile).CombinedOutput(); err != nil {
		t.Fatalf("ecactl register: %v\n%s", err, out)
	}
	if _, body := daemon.Get("/engine/rules?format=ids"); !strings.Contains(body, "survivor") {
		t.Fatalf("rule not listed before crash: %q", body)
	}
	daemon.Kill() // SIGKILL: no shutdown hooks run

	// While the daemon is dead, plant an orphaned event: journaled as
	// accepted but never acked, exactly what a crash between accept and
	// dispatch leaves behind.
	st, err := store.Open(dataDir, store.Options{Fsync: store.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	ev, err := xmltree.ParseString(`<t:ping xmlns:t="http://t/" x="7"/>`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.AppendEventBatchTenant("", []*xmltree.Node{ev}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Second life: same flags, same data dir.
	daemon = startDaemon()
	if _, body := daemon.Get("/engine/rules?format=ids"); !strings.Contains(body, "survivor") {
		t.Fatalf("rule did not survive restart: %q", body)
	}
	e2etest.Eventually(t, "the orphaned event to complete an instance", func() bool {
		_, stats := daemon.Get("/engine/stats")
		return strings.Contains(stats, "instances_completed 1")
	})

	code, metrics := daemon.Get("/metrics")
	if code != 200 {
		t.Fatalf("/metrics = %d", code)
	}
	for _, want := range []string{"store_recovery_rules_total 1", "store_recovery_events_total 1"} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	code, health := daemon.Get("/healthz")
	if code != 200 {
		t.Fatalf("/healthz = %d", code)
	}
	var h struct {
		Store *store.Health `json:"store"`
	}
	if err := json.Unmarshal([]byte(health), &h); err != nil {
		t.Fatalf("healthz JSON: %v\n%s", err, health)
	}
	if h.Store == nil || h.Store.RecoveredRules != 1 || h.Store.RecoveredEvents != 1 || h.Store.Fsync != "always" {
		t.Errorf("/healthz store section = %+v", h.Store)
	}
}
