// Multi-tenant rule spaces. A System is composed of one Space per tenant:
// a private engine and quota state sharing the system's stream, detection
// hosts (which index their detectors by tenant), GRH, compile cache and
// document store. The default
// tenant's space is the system the paper describes — its wire form is the
// empty string everywhere (event stamps, journal frames, metric labels,
// protocol documents), which keeps tenant-less deployments byte-identical
// with builds that predate multi-tenancy. See docs/MULTITENANCY.md.
package system

import (
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"sort"
	"time"

	"repro/internal/engine"
	"repro/internal/events"
	"repro/internal/protocol"
	"repro/internal/ruleml"
	"repro/internal/tenant"
	"repro/internal/xmltree"
)

// Space is one tenant's rule space: the tenant's engine and quota state.
// Spaces are created on first use (a tenant exists as soon as a rule or
// event names it) and live until the system closes.
type Space struct {
	// ID is the external tenant id ("public" unless -default-tenant says
	// otherwise).
	ID string
	// wire is the tenant's canonical internal form: the empty string for
	// the default tenant, the tenant id otherwise.
	wire string
	// Tenant holds the tenant's quota state (rule count, pending events,
	// event-rate bucket).
	Tenant *tenant.Tenant

	Engine *engine.Engine
}

// wireFor maps a canonical (full) tenant id to its wire form.
func (s *System) wireFor(full string) string {
	if full == s.Tenants.DefaultID() {
		return ""
	}
	return full
}

// spaceFor resolves an externally supplied tenant id — or a wire form;
// both canonicalize the same way — to its rule space. On first use it
// creates the space: the tenant, under the registry's declared or wildcard
// quotas, and an engine journaling through the store's tenant-scoped view.
// The empty string is the default tenant.
func (s *System) spaceFor(name string) (*Space, error) {
	full := s.Tenants.Canonical(name)
	wire := s.wireFor(full)
	s.tenantMu.Lock()
	defer s.tenantMu.Unlock()
	if sp := s.spaces[wire]; sp != nil {
		return sp, nil
	}
	ten, err := s.Tenants.Resolve(full)
	if err != nil {
		return nil, err
	}
	opts := append(slices.Clip(s.engineBase), engine.WithTenant(wire))
	if s.Durable != nil {
		opts = append(opts, engine.WithJournal(s.Durable.Scoped(wire)))
	}
	sp := &Space{ID: full, wire: wire, Tenant: ten, Engine: engine.New(s.GRH, opts...)}
	s.spaces[wire] = sp
	return sp, nil
}

// admitDetection hands a detection answer to the engine of the tenant it
// is stamped with, the one local sink of both detection hosts. The engine
// admits its rule instances here, in detection order; the instances run
// where the hosts' Deliverer puts the returned run.
func (s *System) admitDetection(a *protocol.Answer) (run func()) {
	sp, err := s.spaceFor(a.Tenant)
	if err != nil {
		s.Log.Warn("detection dropped", "tenant", a.Tenant, "rule", a.RuleID, "error", err.Error())
		return nil
	}
	return sp.Engine.Admit(a)
}

// snapshotSpaces returns the live spaces ordered by wire form, so the
// default space (wire "") always leads and aggregate listings are stable.
func (s *System) snapshotSpaces() []*Space {
	s.tenantMu.Lock()
	defer s.tenantMu.Unlock()
	wires := make([]string, 0, len(s.spaces))
	for w := range s.spaces {
		wires = append(wires, w)
	}
	sort.Strings(wires)
	out := make([]*Space, 0, len(wires))
	for _, w := range wires {
		out = append(out, s.spaces[w])
	}
	return out
}

// tenantName extracts the tenant a request addresses from the
// X-ECA-Tenant header or the ?tenant= query parameter. Absent both, the
// empty string selects the default tenant; naming different tenants in
// both places is an error.
func tenantName(r *http.Request) (string, error) {
	h := r.Header.Get(protocol.TenantHeader)
	q := r.URL.Query().Get("tenant")
	if h != "" && q != "" && h != q {
		return "", fmt.Errorf("%s header %q conflicts with ?tenant=%s", protocol.TenantHeader, h, q)
	}
	if h != "" {
		return h, nil
	}
	return q, nil
}

// spaceFromRequest resolves the request's tenant to its space, answering
// 400 with the documented JSON error body when the tenant id is invalid.
func (s *System) spaceFromRequest(w http.ResponseWriter, r *http.Request) (*Space, bool) {
	name, err := tenantName(r)
	if err == nil {
		var sp *Space
		if sp, err = s.spaceFor(name); err == nil {
			return sp, true
		}
	}
	writeError(w, http.StatusBadRequest, err.Error())
	return nil, false
}

// listTenant resolves the tenant filter of a listing endpoint (GET
// /engine/rules, /debug/traces). Absent means "all tenants". A named
// tenant must already exist — declared up front or created by use — so
// filtering on an unknown tenant is a 400, not a silently empty list.
// Returns the tenant's wire form and whether a filter applies.
func (s *System) listTenant(w http.ResponseWriter, r *http.Request) (wire string, filtered, ok bool) {
	q := r.URL.Query()
	hdr := r.Header.Get(protocol.TenantHeader)
	if !q.Has("tenant") && hdr == "" {
		return "", false, true
	}
	name := hdr
	if q.Has("tenant") {
		name = q.Get("tenant")
		if hdr != "" && name != hdr {
			writeError(w, http.StatusBadRequest,
				fmt.Sprintf("%s header %q conflicts with ?tenant=%s", protocol.TenantHeader, hdr, name))
			return "", false, false
		}
	}
	full := s.Tenants.Canonical(name)
	if _, known := s.Tenants.Lookup(full); !known {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("unknown tenant %q", name))
		return "", false, false
	}
	return s.wireFor(full), true, true
}

// tenantTraces validates the ?tenant= filter before delegating to the obs
// trace handler: an unknown tenant is a 400, and a known one is rewritten
// to its wire form (the default tenant's traces carry no tenant stamp).
func (s *System) tenantTraces(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		if q.Has("tenant") {
			name := q.Get("tenant")
			full := s.Tenants.Canonical(name)
			if _, known := s.Tenants.Lookup(full); !known {
				writeError(w, http.StatusBadRequest, fmt.Sprintf("unknown tenant %q", name))
				return
			}
			q.Set("tenant", s.wireFor(full))
			r.URL.RawQuery = q.Encode()
		}
		next.ServeHTTP(w, r)
	})
}

// QuotaExceeded is the documented JSON body of a 429 caused by a tenant
// quota, as opposed to the node-wide Overload shape: the named tenant hit
// the stated limit, and — unlike overload shedding — retrying on another
// node will not help, which is why cluster forwarders meter these under
// reason "quota" instead of re-routing.
type QuotaExceeded struct {
	Error             string `json:"error"` // always "quota_exceeded"
	Tenant            string `json:"tenant"`
	Reason            string `json:"reason"` // "max-rules", "max-pending-events" or "rate"
	RetryAfterSeconds int    `json:"retry_after_seconds"`
}

func writeQuotaExceeded(w http.ResponseWriter, err error) {
	qe, ok := err.(*tenant.QuotaError)
	if !ok {
		http.Error(w, err.Error(), http.StatusTooManyRequests)
		return
	}
	w.Header().Set("Retry-After", "1")
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusTooManyRequests)
	json.NewEncoder(w).Encode(QuotaExceeded{
		Error: "quota_exceeded", Tenant: qe.Tenant, Reason: qe.Reason, RetryAfterSeconds: 1,
	})
}

func writeError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(struct {
		Error string `json:"error"`
	}{msg})
}

// localRules aggregates every space's registered rules — the cluster
// layer's vocabulary advertisement covers all tenants.
func (s *System) localRules() []*ruleml.Rule {
	var out []*ruleml.Rule
	for _, sp := range s.snapshotSpaces() {
		out = append(out, sp.Engine.RegisteredRules()...)
	}
	return out
}

// registerRecovered re-registers one journaled rule into its tenant's
// space through the regular validation path, restoring its id and
// registration time. It is the rule-phase callback of both crash recovery
// (Recover) and cluster partition takeover. Recovery bypasses the
// max-rules quota (ForceRule): rules journaled before a quota was
// tightened must survive a restart.
func (s *System) registerRecovered(tenantWire, id string, doc *xmltree.Node, registered time.Time) error {
	sp, err := s.spaceFor(tenantWire)
	if err != nil {
		return err
	}
	rule, err := ruleml.Parse(doc)
	if err != nil {
		return err
	}
	rule.ID = id
	if err := sp.Engine.Register(rule); err != nil {
		return err
	}
	sp.Tenant.ForceRule()
	sp.Engine.SetRegistered(id, registered)
	return nil
}

// publishRecovered re-publishes one orphaned event — accepted but never
// dispatched — on the stream, stamped with the tenant it was journaled
// under so only that tenant's detectors see it; the event phase of both
// crash recovery and cluster partition takeover.
func (s *System) publishRecovered(tenantWire string, doc *xmltree.Node) error {
	sp, err := s.spaceFor(tenantWire)
	if err != nil {
		return err
	}
	ev := events.New(doc)
	ev.Tenant = sp.wire
	s.Stream.Publish(ev)
	return nil
}

// TenantHealth is one tenant's entry in the /healthz tenants section,
// present only when more than one space is live.
type TenantHealth struct {
	ID            string `json:"id"`
	Rules         int    `json:"rules"`
	PendingEvents int    `json:"pending_events"`
}
