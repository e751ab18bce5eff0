package system

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"repro/internal/bindings"
	"repro/internal/events"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/ruleml"
	"repro/internal/services"
	"repro/internal/tenant"
	"repro/internal/xmltree"
)

// tenantRuleXML is simpleRuleXML with a marker attribute on the action,
// so notifications reveal which tenant's rule fired.
func tenantRuleXML(id, marker string) string {
	return `<eca:rule xmlns:eca="` + protocol.ECANS + `" xmlns:t="` + tNS + `" id="` + id + `">
	  <eca:event><t:ping x="$X"/></eca:event>
	  <eca:action><t:pong fired-by="` + marker + `" x="$X"/></eca:action>
	</eca:rule>`
}

// tenantDo performs one request with an optional X-ECA-Tenant header and
// returns the status code and body.
func tenantDo(t *testing.T, method, url, tenantID, body string) (int, string) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/xml")
	}
	if tenantID != "" {
		req.Header.Set(protocol.TenantHeader, tenantID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	out, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, string(out)
}

// firedBy collects the fired-by markers of every notification sent so
// far.
func firedBy(sys *System) []string {
	var out []string
	for _, nt := range sys.Notifier.Sent() {
		out = append(out, nt.Message.AttrValue("", "fired-by"))
	}
	return out
}

// Two tenants and the default space: rules land in the space the request
// names, events only reach their own tenant's rules, and listings filter
// by tenant (rejecting unknown ones with the JSON error contract).
func TestTenantIsolation(t *testing.T) {
	hub := obs.NewHub()
	sys, err := NewLocal(Config{Obs: hub})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	srv := httptest.NewServer(sys.Mux(nil, nil))
	defer srv.Close()

	for _, reg := range []struct{ tenant, id string }{
		{"acme", "r-acme"}, {"beta", "r-beta"}, {"", "r-default"},
	} {
		marker := reg.tenant
		if marker == "" {
			marker = "default"
		}
		if code, body := tenantDo(t, http.MethodPost, srv.URL+"/engine/rules", reg.tenant, tenantRuleXML(reg.id, marker)); code != 200 {
			t.Fatalf("register %s for %q = %d %q", reg.id, reg.tenant, code, body)
		}
	}

	// One event per tenant; each must fire exactly its own tenant's rule.
	event := `<t:ping xmlns:t="` + tNS + `" x="7"/>`
	for _, tn := range []string{"acme", "beta", ""} {
		if code, body := tenantDo(t, http.MethodPost, srv.URL+"/events", tn, event); code != 200 {
			t.Fatalf("event for %q = %d %q", tn, code, body)
		}
	}
	if got := strings.Join(firedBy(sys), ","); got != "acme,beta,default" {
		t.Fatalf("firings = %q, want acme,beta,default", got)
	}

	// Unfiltered listing aggregates all spaces, default space first.
	code, body := tenantDo(t, http.MethodGet, srv.URL+"/engine/rules?format=ids", "", "")
	if code != 200 || strings.Join(strings.Fields(body), ",") != "r-default,r-acme,r-beta" {
		t.Fatalf("unfiltered ids = %d %q", code, body)
	}
	// ?tenant= filters to one space; the default tenant's external name
	// works too.
	code, body = tenantDo(t, http.MethodGet, srv.URL+"/engine/rules?format=ids&tenant=acme", "", "")
	if code != 200 || strings.TrimSpace(body) != "r-acme" {
		t.Fatalf("acme ids = %d %q", code, body)
	}
	code, body = tenantDo(t, http.MethodGet, srv.URL+"/engine/rules?format=ids&tenant="+tenant.Default, "", "")
	if code != 200 || strings.TrimSpace(body) != "r-default" {
		t.Fatalf("default-tenant ids = %d %q", code, body)
	}
	// The JSON listing stamps each rule's tenant (omitted for default).
	code, body = tenantDo(t, http.MethodGet, srv.URL+"/engine/rules?tenant=acme", "", "")
	if code != 200 || !strings.Contains(body, `"tenant": "acme"`) {
		t.Fatalf("acme rules JSON = %d %q", code, body)
	}
	// Filtering on a tenant that never existed is a 400 with the JSON
	// error contract, not a silently empty list.
	code, body = tenantDo(t, http.MethodGet, srv.URL+"/engine/rules?tenant=ghost", "", "")
	var errBody struct {
		Error string `json:"error"`
	}
	if code != 400 || json.Unmarshal([]byte(body), &errBody) != nil || !strings.Contains(errBody.Error, "ghost") {
		t.Fatalf("unknown tenant listing = %d %q", code, body)
	}
	// Same contract on the trace listing.
	code, body = tenantDo(t, http.MethodGet, srv.URL+"/debug/traces?tenant=ghost", "", "")
	if code != 400 || json.Unmarshal([]byte(body), &errBody) != nil || !strings.Contains(errBody.Error, "ghost") {
		t.Fatalf("unknown tenant traces = %d %q", code, body)
	}
	// Trace filtering: each tenant sees only its own instances.
	code, body = tenantDo(t, http.MethodGet, srv.URL+"/debug/traces?tenant=acme", "", "")
	if code != 200 || !strings.Contains(body, "r-acme#") || strings.Contains(body, "r-beta#") || strings.Contains(body, "r-default#") {
		t.Fatalf("acme traces = %d %q", code, body)
	}

	// DELETE scoped to a tenant removes only that tenant's rule.
	if code, body := tenantDo(t, http.MethodDelete, srv.URL+"/engine/rules/r-acme", "acme", ""); code != 200 {
		t.Fatalf("delete r-acme = %d %q", code, body)
	}
	code, body = tenantDo(t, http.MethodGet, srv.URL+"/engine/rules?format=ids", "", "")
	if code != 200 || strings.Join(strings.Fields(body), ",") != "r-default,r-beta" {
		t.Fatalf("ids after delete = %d %q", code, body)
	}

	// Per-tenant admission counters reconcile with the three admits.
	reg := hub.Metrics()
	for _, c := range []struct {
		tenant string
		want   int64
	}{{"acme", 1}, {"beta", 1}, {"", 1}} {
		if got := reg.CounterVec("events_admitted_total", "", "tenant").With(c.tenant).Value(); got != c.want {
			t.Errorf("events_admitted_total{tenant=%q} = %d, want %d", c.tenant, got, c.want)
		}
	}
}

// Quota rejections: a tenant at its max-rules or rate quota gets the
// quota_exceeded 429 body — distinct from the node-wide overloaded body —
// while other tenants keep admitting, and the shed counter splits by
// reason. The exposition must stay lint-clean with the new labels.
func TestTenantQuotaRejections(t *testing.T) {
	hub := obs.NewHub()
	sys, err := NewLocal(Config{
		Obs:              hub,
		MaxPendingEvents: 1,
		TenantQuotas: map[string]tenant.Quotas{
			"acme": {MaxRules: 1, EventRate: 0.000001, EventBurst: 1},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	srv := httptest.NewServer(sys.Mux(nil, nil))
	defer srv.Close()

	// Rule quota: the first registration fits, the second is rejected
	// with the documented body and consumes nothing.
	if code, body := tenantDo(t, http.MethodPost, srv.URL+"/engine/rules", "acme", tenantRuleXML("q-1", "acme")); code != 200 {
		t.Fatalf("first acme rule = %d %q", code, body)
	}
	code, body := tenantDo(t, http.MethodPost, srv.URL+"/engine/rules", "acme", tenantRuleXML("q-2", "acme"))
	var quota QuotaExceeded
	if code != 429 || json.Unmarshal([]byte(body), &quota) != nil {
		t.Fatalf("second acme rule = %d %q", code, body)
	}
	if quota.Error != "quota_exceeded" || quota.Tenant != "acme" || quota.Reason != "max-rules" {
		t.Fatalf("quota body = %+v", quota)
	}
	// An unthrottled tenant is unaffected.
	if code, body := tenantDo(t, http.MethodPost, srv.URL+"/engine/rules", "beta", tenantRuleXML("q-3", "beta")); code != 200 {
		t.Fatalf("beta rule = %d %q", code, body)
	}

	// Event-rate quota: burst 1 admits one event, the second is shed with
	// reason "rate" while beta still admits.
	event := `<t:ping xmlns:t="` + tNS + `" x="1"/>`
	if code, body := tenantDo(t, http.MethodPost, srv.URL+"/events", "acme", event); code != 200 {
		t.Fatalf("first acme event = %d %q", code, body)
	}
	code, body = tenantDo(t, http.MethodPost, srv.URL+"/events", "acme", event)
	if code != 429 || json.Unmarshal([]byte(body), &quota) != nil || quota.Error != "quota_exceeded" || quota.Reason != "rate" {
		t.Fatalf("rate-limited event = %d %q", code, body)
	}
	if code, body := tenantDo(t, http.MethodPost, srv.URL+"/events", "beta", event); code != 200 {
		t.Fatalf("beta event = %d %q", code, body)
	}

	// Node overload is a different 429: fill the admission semaphore and
	// the body says "overloaded", not "quota_exceeded".
	sys.eventSlots <- struct{}{}
	code, body = tenantDo(t, http.MethodPost, srv.URL+"/events", "beta", event)
	<-sys.eventSlots
	var over Overload
	if code != 429 || json.Unmarshal([]byte(body), &over) != nil || over.Error != "overloaded" {
		t.Fatalf("overloaded = %d %q", code, body)
	}

	reg := hub.Metrics()
	shed := reg.CounterVec("events_shed_total", "", "tenant", "reason")
	if got := shed.With("acme", "quota").Value(); got != 1 {
		t.Errorf("events_shed_total{acme,quota} = %d, want 1", got)
	}
	if got := shed.With("beta", "overload").Value(); got != 1 {
		t.Errorf("events_shed_total{beta,overload} = %d, want 1", got)
	}
	// The per-tenant admitted counters reconcile: acme 1, beta 1.
	adm := reg.CounterVec("events_admitted_total", "", "tenant")
	if a, b := adm.With("acme").Value(), adm.With("beta").Value(); a != 1 || b != 1 {
		t.Errorf("admitted acme=%d beta=%d, want 1 and 1", a, b)
	}

	// Lint regression: the tenant/reason labels must not break the
	// Prometheus exposition contract.
	var exp strings.Builder
	reg.WritePrometheus(&exp)
	if err := obs.LintExposition(strings.NewReader(exp.String())); err != nil {
		t.Errorf("exposition lint: %v\n%s", err, exp.String())
	}
	for _, want := range []string{`reason="quota"`, `reason="overload"`, `tenant="acme"`} {
		if !strings.Contains(exp.String(), want) {
			t.Errorf("exposition missing %s:\n%s", want, exp.String())
		}
	}
}

// A durable deployment recovers each tenant's rules and orphaned events
// into that tenant's space: after a crash and restart, replayed events
// fire only their own tenant's rules and listings keep the tenant stamps.
func TestTenantDurableRecovery(t *testing.T) {
	dir := t.TempDir()

	sys1 := durableSystem(t, dir, nil)
	srv1 := httptest.NewServer(sys1.Mux(nil, nil))
	if code, body := tenantDo(t, http.MethodPost, srv1.URL+"/engine/rules", "acme", tenantRuleXML("d-acme", "acme")); code != 200 {
		t.Fatalf("register acme = %d %q", code, body)
	}
	if code, body := tenantDo(t, http.MethodPost, srv1.URL+"/engine/rules", "", tenantRuleXML("d-default", "default")); code != 200 {
		t.Fatalf("register default = %d %q", code, body)
	}
	// Orphan one event per tenant: journaled (as a crash between accept
	// and dispatch would leave them) but never published.
	for _, orphan := range []struct{ tenant, x string }{{"acme", "41"}, {"", "42"}} {
		doc, err := xmltree.ParseString(`<t:ping xmlns:t="` + tNS + `" x="` + orphan.x + `"/>`)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys1.Durable.AppendEventBatchTenant(orphan.tenant, []*xmltree.Node{doc}); err != nil {
			t.Fatal(err)
		}
	}
	srv1.Close()
	// Crash: no Close, the journal holds two rules and two orphans.

	sys2 := durableSystem(t, dir, nil)
	defer sys2.Close()
	for _, sp := range sys2.snapshotSpaces() {
		sp.Engine.Wait()
	}
	fired := firedBy(sys2)
	if len(fired) != 2 {
		t.Fatalf("recovery fired %d instances, want 2 (%v)", len(fired), fired)
	}
	sent := sys2.Notifier.Sent()
	for _, nt := range sent {
		marker := nt.Message.AttrValue("", "fired-by")
		x := nt.Message.AttrValue("", "x")
		if (marker == "acme") != (x == "41") {
			t.Errorf("cross-tenant replay: fired-by=%q x=%q", marker, x)
		}
	}

	srv2 := httptest.NewServer(sys2.Mux(nil, nil))
	defer srv2.Close()
	code, body := tenantDo(t, http.MethodGet, srv2.URL+"/engine/rules?format=ids&tenant=acme", "", "")
	if code != 200 || strings.TrimSpace(body) != "d-acme" {
		t.Fatalf("recovered acme ids = %d %q", code, body)
	}
	// Recovery restored the quota accounting: the acme space counts its
	// one rule.
	sp, err := sys2.spaceFor("acme")
	if err != nil {
		t.Fatal(err)
	}
	if got := sp.Tenant.Rules(); got != 1 {
		t.Errorf("recovered acme rule count = %d, want 1", got)
	}

	// Fresh traffic lands in the recovered spaces.
	if code, body := tenantDo(t, http.MethodPost, srv2.URL+"/events", "acme", `<t:ping xmlns:t="`+tNS+`" x="9"/>`); code != 200 {
		t.Fatalf("post-recovery event = %d %q", code, body)
	}
	if got := firedBy(sys2); got[len(got)-1] != "acme" {
		t.Fatalf("post-recovery firing = %v", got)
	}
}

// The default tenant can be renamed: -default-tenant maps the new name to
// the same wire form, so journals and metrics stay tenant-less.
func TestRenamedDefaultTenant(t *testing.T) {
	sys, err := NewLocal(Config{DefaultTenant: "main"})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	srv := httptest.NewServer(sys.Mux(nil, nil))
	defer srv.Close()

	// Naming the default tenant explicitly and naming no tenant address
	// the same space.
	if code, body := tenantDo(t, http.MethodPost, srv.URL+"/engine/rules", "main", tenantRuleXML("rn-1", "default")); code != 200 {
		t.Fatalf("register via name = %d %q", code, body)
	}
	code, body := tenantDo(t, http.MethodGet, srv.URL+"/engine/rules?format=ids", "", "")
	if code != 200 || strings.TrimSpace(body) != "rn-1" {
		t.Fatalf("ids = %d %q", code, body)
	}
	// The old default name is now just an ordinary (unknown) tenant.
	code, body = tenantDo(t, http.MethodGet, srv.URL+"/engine/rules?format=ids&tenant="+tenant.Default, "", "")
	if code != 400 {
		t.Fatalf("old default name = %d %q", code, body)
	}
	info := sys.ruleInfos()
	if len(info) != 1 || info[0].Tenant != "" {
		t.Fatalf("renamed default must keep the empty wire form: %+v", info)
	}
}

// An invalid tenant id is rejected up front on both surfaces.
func TestInvalidTenantRejected(t *testing.T) {
	sys, err := NewLocal(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	srv := httptest.NewServer(sys.Mux(nil, nil))
	defer srv.Close()

	for _, path := range []string{"/engine/rules", "/events"} {
		code, body := tenantDo(t, http.MethodPost, srv.URL+path, "Not A Slug", `<x/>`)
		var errBody struct {
			Error string `json:"error"`
		}
		if code != 400 || json.Unmarshal([]byte(body), &errBody) != nil || errBody.Error == "" {
			t.Errorf("POST %s with bad tenant = %d %q", path, code, body)
		}
	}
}

// Events raised by act:raise stay inside the raising rule's tenant: a
// chain rule in another tenant must not fire.
func TestRaisedEventsStayInTenant(t *testing.T) {
	sys, err := NewLocal(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	srv := httptest.NewServer(sys.Mux(nil, nil))
	defer srv.Close()

	raise := `<eca:rule xmlns:eca="` + protocol.ECANS + `" xmlns:t="` + tNS + `" xmlns:act="` + services.ActionNS + `" id="raiser">
	  <eca:event><t:ping x="$X"/></eca:event>
	  <eca:action><act:raise><t:chained x="$X"/></act:raise></eca:action>
	</eca:rule>`
	chainRule := func(id, marker string) string {
		return `<eca:rule xmlns:eca="` + protocol.ECANS + `" xmlns:t="` + tNS + `" id="` + id + `">
	  <eca:event><t:chained x="$X"/></eca:event>
	  <eca:action><t:pong fired-by="` + marker + `" x="$X"/></eca:action>
	</eca:rule>`
	}
	for _, reg := range []struct{ tenant, xml string }{
		{"acme", raise},
		{"acme", chainRule("chain-acme", "acme")},
		{"beta", chainRule("chain-beta", "beta")},
	} {
		if code, body := tenantDo(t, http.MethodPost, srv.URL+"/engine/rules", reg.tenant, reg.xml); code != 200 {
			t.Fatalf("register in %q = %d %q", reg.tenant, code, body)
		}
	}
	if code, body := tenantDo(t, http.MethodPost, srv.URL+"/events", "acme", `<t:ping xmlns:t="`+tNS+`" x="5"/>`); code != 200 {
		t.Fatalf("event = %d %q", code, body)
	}
	for _, sp := range sys.snapshotSpaces() {
		sp.Engine.Wait()
	}
	if got := strings.Join(firedBy(sys), ","); got != "acme" {
		t.Fatalf("chained firings = %q, want acme only", got)
	}
}

// POST /engine/detect hands a remote detection to the engine of the
// tenant it is stamped with: with the same rule id in two tenants, a
// detection for acme fires acme's rule and no other.
func TestEngineDetectRoutesByTenant(t *testing.T) {
	sys, err := NewLocal(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	srv := httptest.NewServer(sys.Mux(nil, nil))
	defer srv.Close()
	for _, tn := range []string{"", "acme"} {
		if code, body := tenantDo(t, http.MethodPost, srv.URL+"/engine/rules", tn, tenantRuleXML("r", "fired-"+tn)); code != 200 {
			t.Fatalf("register r for %q = %d %q", tn, code, body)
		}
	}
	a := &protocol.Answer{RuleID: "r", Component: "event[1]", Tenant: "acme",
		Rows: []protocol.AnswerRow{{Tuple: bindings.Tuple{"X": bindings.Str("7")}}}}
	if code, body := tenantDo(t, http.MethodPost, srv.URL+"/engine/detect", "", protocol.EncodeAnswers(a).String()); code != 200 {
		t.Fatalf("POST /engine/detect = %d %q", code, body)
	}
	if got := strings.Join(firedBy(sys), ","); got != "fired-acme" {
		t.Fatalf("firings = %q, want only acme's rule", got)
	}
}

// However many tenants are live, the stream has two detection
// subscribers: the atomic matcher and the SNOOP host.
func TestStreamSubscribersIgnoreTenants(t *testing.T) {
	sys, err := NewLocal(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	for i := 0; i < 50; i++ {
		if _, err := sys.spaceFor(fmt.Sprintf("t%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if n := sys.Stream.Subscribers(); n != 2 {
		t.Fatalf("stream subscribers = %d with 51 tenants, want 2", n)
	}
}

// BenchmarkPublishTenants publishes one event that no rule matches while T
// tenants are live, each with one atomic rule. Each event language has one
// detection host for every tenant, so the cost of a publish must not
// follow T (the CI tenant-count gate compares T = 1e3 with T = 1).
func BenchmarkPublishTenants(b *testing.B) {
	for _, c := range []struct {
		name    string
		tenants int
	}{{"tenants=1", 1}, {"tenants=10", 10}, {"tenants=100", 100}, {"tenants=1e3", 1000}} {
		b.Run(c.name, func(b *testing.B) {
			sys, err := NewLocal(Config{})
			if err != nil {
				b.Fatal(err)
			}
			defer sys.Close()
			for i := 0; i < c.tenants; i++ {
				name := "" // the default tenant, which publishes below
				if i > 0 {
					name = fmt.Sprintf("t%d", i)
				}
				sp, err := sys.spaceFor(name)
				if err != nil {
					b.Fatal(err)
				}
				if err := sp.Engine.Register(ruleml.MustParse(tenantRuleXML("r", "x"))); err != nil {
					b.Fatal(err)
				}
			}
			ev := events.New(xmltree.MustParse(`<t:unmatched xmlns:t="` + tNS + `" x="1"/>`))
			runtime.GC() // the set-up garbage is not the measured loop's to collect
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sys.Stream.Publish(ev)
			}
		})
	}
}
