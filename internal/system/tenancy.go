// Multi-tenancy. One engine and one set of detection hosts serve every
// tenant: rules are keyed by (tenant, rule id), detectors by tenant, and a
// tenant itself is only its quota state in the tenant.Registry. The
// default tenant is the system the paper describes — its wire form is the
// empty string everywhere (event stamps, journal frames, metric labels,
// protocol documents), which keeps tenant-less deployments byte-identical
// with builds that predate multi-tenancy. See docs/MULTITENANCY.md.
package system

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"repro/internal/events"
	"repro/internal/protocol"
	"repro/internal/ruleml"
	"repro/internal/tenant"
	"repro/internal/xmltree"
)

// wireFor maps a canonical (full) tenant id to its wire form.
func (s *System) wireFor(full string) string {
	if full == s.Tenants.DefaultID() {
		return ""
	}
	return full
}

// tenantFor resolves an externally supplied tenant id — or a wire form;
// both canonicalize the same way — to its quota state and wire form,
// creating the tenant, under the registry's declared or wildcard quotas,
// on first use. The empty string is the default tenant.
func (s *System) tenantFor(name string) (*tenant.Tenant, string, error) {
	t, err := s.Tenants.Resolve(name)
	if err != nil {
		return nil, "", err
	}
	return t, s.wireFor(t.ID()), nil
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

// tenantFromRequest resolves the request's tenant, answering 400 with the
// documented JSON error body when the tenant id is invalid.
func (s *System) tenantFromRequest(w http.ResponseWriter, r *http.Request) (*tenant.Tenant, string, bool) {
	name, err := tenantName(r)
	if err == nil {
		var t *tenant.Tenant
		var wire string
		if t, wire, err = s.tenantFor(name); err == nil {
			return t, wire, true
		}
	}
	writeError(w, http.StatusBadRequest, err.Error())
	return nil, "", false
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
	if !s.Tenants.Known(full) {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("unknown tenant %q", name))
		return "", false, false
	}
	return s.wireFor(full), true, true
}

// ruleTenant names the tenant whose rule GET and DELETE
// /engine/rules/{id} address: the tenant filter when the request names
// one, else the first tenant, in listing order, holding the id.
func (s *System) ruleTenant(w http.ResponseWriter, r *http.Request, id string) (wire string, ok bool) {
	wire, filtered, ok := s.listTenant(w, r)
	if ok && !filtered {
		wire, _ = s.Engine.Find(id)
	}
	return wire, ok
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
			if !s.Tenants.Known(full) {
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

// registerRecovered re-registers one journaled rule in its tenant through
// the regular validation path, restoring its id and registration time. It is the rule-phase callback of both crash recovery
// (Recover) and cluster partition takeover. Recovery bypasses the
// max-rules quota (ForceRule): rules journaled before a quota was
// tightened must survive a restart.
func (s *System) registerRecovered(tenantWire, id string, doc *xmltree.Node, registered time.Time) error {
	t, wire, err := s.tenantFor(tenantWire)
	if err != nil {
		return err
	}
	rule, err := ruleml.Parse(doc)
	if err != nil {
		return err
	}
	rule.ID = id
	if err := s.Engine.Add(wire, rule); err != nil {
		return err
	}
	t.ForceRule()
	s.Engine.SetRegistered(wire, id, registered)
	return nil
}

// publishRecovered re-publishes one orphaned event — accepted but never
// dispatched — on the stream, stamped with the tenant it was journaled
// under so only that tenant's detectors see it; the event phase of both
// crash recovery and cluster partition takeover.
func (s *System) publishRecovered(tenantWire string, doc *xmltree.Node) error {
	_, wire, err := s.tenantFor(tenantWire)
	if err != nil {
		return err
	}
	ev := events.New(doc)
	ev.Tenant = wire
	s.Stream.Publish(ev)
	return nil
}

// TenantHealth is one tenant's entry in the /healthz tenants section,
// present only when a tenant other than the default is in use.
type TenantHealth struct {
	ID            string `json:"id"`
	Rules         int    `json:"rules"`
	PendingEvents int    `json:"pending_events"`
}
