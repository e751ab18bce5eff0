package system

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/ruleml"
	"repro/internal/store"
	"repro/internal/xmltree"
)

func durableSystem(t *testing.T, dir string, hub *obs.Hub) *System {
	t.Helper()
	st, err := store.Open(dir, store.Options{Fsync: store.FsyncAlways, Obs: hub})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewLocal(Config{Store: st, Obs: hub})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Recover(); err != nil {
		t.Fatal(err)
	}
	return sys
}

// A rule registered over HTTP in one "process" is live again after a
// crash (no Close) and restart over the same data dir, and fires on a
// fresh event.
func TestSystemRecoversRulesAfterCrash(t *testing.T) {
	dir := t.TempDir()

	sys1 := durableSystem(t, dir, nil)
	srv1 := httptest.NewServer(sys1.Mux(nil, nil))
	resp, err := http.Post(srv1.URL+"/engine/rules", "application/xml", strings.NewReader(simpleRuleXML("durable-rule")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("register = %d", resp.StatusCode)
	}
	srv1.Close()
	// Crash: no sys1.Close(), the journal is all that survives.

	hub := obs.NewHub()
	sys2 := durableSystem(t, dir, hub)
	defer sys2.Close()
	if got := sys2.Engine.Rules(); len(got) != 1 || got[0] != "durable-rule" {
		t.Fatalf("recovered rules = %v", got)
	}
	// The recovered rule must be fully wired: a fresh event fires it.
	srv2 := httptest.NewServer(sys2.Mux(nil, nil))
	defer srv2.Close()
	resp, err = http.Post(srv2.URL+"/events", "application/xml", strings.NewReader(`<t:ping xmlns:t="`+tNS+`" x="9"/>`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := len(sys2.Notifier.Sent()); got != 1 {
		t.Fatalf("recovered rule did not fire: %d notifications", got)
	}

	var exp strings.Builder
	hub.Metrics().WritePrometheus(&exp)
	if !strings.Contains(exp.String(), "store_recovery_rules_total 1") {
		t.Errorf("recovery not metered:\n%s", exp.String())
	}
}

// An event journaled but never dispatched (orphaned by a crash between
// accept and publish) is re-enqueued on recovery and drives a rule
// instance to completion.
func TestSystemReplaysOrphanedEvent(t *testing.T) {
	dir := t.TempDir()

	sys1 := durableSystem(t, dir, nil)
	rule := ruleml.MustParse(simpleRuleXML("orphan-rule"))
	if err := sys1.Engine.Register(rule); err != nil {
		t.Fatal(err)
	}
	// Accept an event into the journal without dispatching it — the state
	// a crash between the journal append and Publish leaves behind.
	ev, err := xmltree.ParseString(`<t:ping xmlns:t="` + tNS + `" x="42"/>`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys1.Durable.AppendEventBatchTenant("", []*xmltree.Node{ev}); err != nil {
		t.Fatal(err)
	}
	// Crash.

	sys2 := durableSystem(t, dir, nil)
	defer sys2.Close()
	sys2.Engine.Wait()
	sent := sys2.Notifier.Sent()
	if len(sent) != 1 || !strings.Contains(sent[0].Message.String(), `x="42"`) {
		t.Fatalf("orphaned event did not complete an instance: %+v", sent)
	}
	st := sys2.Engine.Stats()
	if st.InstancesCompleted != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if h := sys2.Durable.Health(); h.RecoveredEvents != 1 || h.PendingEvents != 0 {
		t.Fatalf("store health = %+v", h)
	}

	// Third boot: the replayed event must not fire again.
	sys2.Close()
	sys3 := durableSystem(t, dir, nil)
	defer sys3.Close()
	sys3.Engine.Wait()
	if got := len(sys3.Notifier.Sent()); got != 0 {
		t.Fatalf("event replayed twice: %d notifications", got)
	}
}

// An unregistered rule stays gone after restart, and /healthz exposes the
// store section for durable deployments.
func TestSystemUnregisterDurableAndHealthz(t *testing.T) {
	dir := t.TempDir()

	sys1 := durableSystem(t, dir, nil)
	srv1 := httptest.NewServer(sys1.Mux(nil, nil))
	for _, id := range []string{"keep", "drop"} {
		resp, err := http.Post(srv1.URL+"/engine/rules", "application/xml", strings.NewReader(simpleRuleXML(id)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	req, _ := http.NewRequest(http.MethodDelete, srv1.URL+"/engine/rules/drop", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("DELETE = %d", resp.StatusCode)
	}
	srv1.Close()
	// Crash.

	sys2 := durableSystem(t, dir, nil)
	defer sys2.Close()
	if got := sys2.Engine.Rules(); len(got) != 1 || got[0] != "keep" {
		t.Fatalf("rules after restart = %v", got)
	}

	srv2 := httptest.NewServer(sys2.Mux(nil, nil))
	defer srv2.Close()
	resp, err = http.Get(srv2.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var h Health
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatalf("healthz JSON: %v\n%s", err, body)
	}
	if h.Store == nil || h.Store.Rules != 1 || h.Store.RecoveredRules != 1 || h.Store.Fsync != "always" {
		t.Fatalf("healthz store section = %+v", h.Store)
	}
}

// The recovered registration time is the original one from the journal,
// not the restart instant.
func TestRecoveryRestoresRegistrationTime(t *testing.T) {
	dir := t.TempDir()
	sys1 := durableSystem(t, dir, nil)
	if err := sys1.Engine.Register(ruleml.MustParse(simpleRuleXML("timed"))); err != nil {
		t.Fatal(err)
	}
	infos := sys1.Engine.RuleInfos()
	if len(infos) != 1 {
		t.Fatal("no rule info")
	}
	orig := infos[0].Registered

	time.Sleep(10 * time.Millisecond)
	sys2 := durableSystem(t, dir, nil)
	defer sys2.Close()
	infos2 := sys2.Engine.RuleInfos()
	if len(infos2) != 1 || !infos2[0].Registered.Equal(orig) {
		t.Fatalf("registered = %v, want original %v", infos2[0].Registered, orig)
	}
}

// TestDeeplyNestedEventRejected: an event body nested past
// xmltree.MaxDepth — here 1.3 million <a> elements, 9.1 MB, under the body
// bound — is a 400 from a durable POST /events, not a tree for the journal
// writer to recurse through, and the daemon goes on admitting events.
func TestDeeplyNestedEventRejected(t *testing.T) {
	sys := durableSystem(t, t.TempDir(), nil)
	defer sys.Close()
	srv := httptest.NewServer(sys.Mux(nil, nil))
	defer srv.Close()
	const depth = 1_300_000
	deep := strings.Repeat("<a>", depth) + strings.Repeat("</a>", depth)
	for _, tc := range []struct {
		body string
		want int
	}{
		{deep, http.StatusBadRequest},
		{`<t:ping xmlns:t="` + tNS + `" x="1"/>`, http.StatusOK},
	} {
		resp, err := http.Post(srv.URL+"/events", "application/xml", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Fatalf("%d-byte body: status %d, want %d", len(tc.body), resp.StatusCode, tc.want)
		}
	}
}
