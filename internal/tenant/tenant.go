// Package tenant provides the multi-tenancy primitives for the ECA
// engine: validated tenant identifiers, per-tenant quotas (rule count,
// pending events, token-bucket event rate), and a registry that owns
// the tenant set for one System.
//
// Tenants are namespaces, not processes: every tenant shares the engine,
// the GRH, the journal file and the ordered dispatch stage, but rules
// registered under one tenant only ever see events published under the
// same tenant. The default tenant (normally "public") is what every
// request without an explicit tenant resolves to, which is how a
// tenant-unaware deployment keeps its exact pre-tenancy behaviour.
package tenant

import (
	"fmt"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Default is the tenant id used when a request names no tenant.
const Default = "public"

// slugRE is the tenant id grammar: DNS-label-like slugs — lowercase
// alphanumerics and single hyphens, no leading/trailing hyphen, 1..63
// characters. Uppercase is rejected rather than folded so ids are
// byte-comparable everywhere (headers, journal frames, metric labels).
var slugRE = regexp.MustCompile(`^[a-z0-9]([a-z0-9-]{0,61}[a-z0-9])?$`)

// ValidateID reports whether id is an acceptable tenant slug.
func ValidateID(id string) error {
	if !slugRE.MatchString(id) {
		return fmt.Errorf("invalid tenant id %q: must match %s (lowercase slug, 1-63 chars)", id, slugRE)
	}
	if strings.Contains(id, "--") {
		return fmt.Errorf("invalid tenant id %q: consecutive hyphens not allowed", id)
	}
	return nil
}

// Quotas bounds one tenant's resource use. The zero value of any field
// means "unlimited" for that dimension.
type Quotas struct {
	// MaxRules caps concurrently registered rules.
	MaxRules int
	// MaxPendingEvents caps events admitted but not yet dispatched.
	MaxPendingEvents int
	// EventRate is the sustained token-bucket refill rate in
	// events/second; EventBurst is the bucket depth. A positive rate
	// with a zero burst gets a burst of max(1, ceil(rate)).
	EventRate  float64
	EventBurst int
}

// burst returns the effective bucket depth.
func (q Quotas) burst() float64 {
	if q.EventBurst > 0 {
		return float64(q.EventBurst)
	}
	if q.EventRate <= 0 {
		return 0
	}
	b := float64(int(q.EventRate))
	if b < q.EventRate {
		b++
	}
	if b < 1 {
		b = 1
	}
	return b
}

// QuotaError reports a quota rejection. Reason is a stable token
// ("max-rules", "max-pending-events", "rate") suitable for error
// bodies and metrics labels.
type QuotaError struct {
	Tenant string
	Reason string
	Limit  string
}

func (e *QuotaError) Error() string {
	return fmt.Sprintf("tenant %q over quota: %s (limit %s)", e.Tenant, e.Reason, e.Limit)
}

// Tenant is one namespace's quota state. All methods are safe for
// concurrent use; counting is exact (mutex, not atomics) so racing
// admitters at a quota boundary admit exactly the configured number.
type Tenant struct {
	id     string
	quotas Quotas

	mu      sync.Mutex
	rules   int
	pending int
	tokens  float64
	last    time.Time
	now     func() time.Time
}

// ID returns the tenant's identifier.
func (t *Tenant) ID() string { return t.id }

// Quotas returns the tenant's configured limits.
func (t *Tenant) Quotas() Quotas { return t.quotas }

// Rules returns the current registered-rule count.
func (t *Tenant) Rules() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.rules
}

// Pending returns the current pending-event count.
func (t *Tenant) Pending() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.pending
}

// AcquireRule reserves one rule slot, failing when the tenant is at
// its MaxRules quota.
func (t *Tenant) AcquireRule() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.quotas.MaxRules > 0 && t.rules >= t.quotas.MaxRules {
		return &QuotaError{Tenant: t.id, Reason: "max-rules", Limit: strconv.Itoa(t.quotas.MaxRules)}
	}
	t.rules++
	return nil
}

// ForceRule reserves a rule slot unconditionally. Recovery uses it so
// a journal that already holds more rules than a newly tightened quota
// still replays completely; the quota re-applies to new registrations.
func (t *Tenant) ForceRule() {
	t.mu.Lock()
	t.rules++
	t.mu.Unlock()
}

// ReleaseRule returns a rule slot (on unregister or failed
// registration rollback).
func (t *Tenant) ReleaseRule() {
	t.mu.Lock()
	if t.rules > 0 {
		t.rules--
	}
	t.mu.Unlock()
}

// AcquirePending reserves capacity for n in-flight events, failing
// all-or-nothing at the MaxPendingEvents quota.
func (t *Tenant) AcquirePending(n int) error {
	if n <= 0 {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.quotas.MaxPendingEvents > 0 && t.pending+n > t.quotas.MaxPendingEvents {
		return &QuotaError{Tenant: t.id, Reason: "max-pending-events", Limit: strconv.Itoa(t.quotas.MaxPendingEvents)}
	}
	t.pending += n
	return nil
}

// ReleasePending returns capacity reserved by AcquirePending.
func (t *Tenant) ReleasePending(n int) {
	if n <= 0 {
		return
	}
	t.mu.Lock()
	t.pending -= n
	if t.pending < 0 {
		t.pending = 0
	}
	t.mu.Unlock()
}

// AdmitEvents takes n tokens from the tenant's rate bucket,
// all-or-nothing: either all n events are admitted or none are and a
// rate QuotaError is returned. With no rate configured it always
// succeeds.
func (t *Tenant) AdmitEvents(n int) error {
	if n <= 0 || t.quotas.EventRate <= 0 {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.now()
	burst := t.quotas.burst()
	if elapsed := now.Sub(t.last).Seconds(); elapsed > 0 {
		t.tokens += elapsed * t.quotas.EventRate
		if t.tokens > burst {
			t.tokens = burst
		}
	}
	t.last = now
	if t.tokens < float64(n) {
		return &QuotaError{
			Tenant: t.id,
			Reason: "rate",
			Limit:  fmt.Sprintf("%g events/sec (burst %g)", t.quotas.EventRate, burst),
		}
	}
	t.tokens -= float64(n)
	return nil
}

// Registry owns the tenant set for one System. Tenants are created on
// first use (open registration) with the registry's default quotas
// unless quotas were declared for that id up front; a declaration alone
// creates no tenant.
type Registry struct {
	defaultID string

	mu       sync.RWMutex
	declared map[string]Quotas  // ids pre-declared via -tenant-quotas
	wildcard *Quotas            // "*" default quotas for undeclared tenants
	tenants  map[string]*Tenant // the default and every tenant resolved since
	now      func() time.Time
}

// Option configures a Registry.
type Option func(*Registry)

// NewRegistry builds a registry whose default tenant is defaultID
// (Default when empty). The default tenant exists from the start.
func NewRegistry(defaultID string, opts ...Option) (*Registry, error) {
	if defaultID == "" {
		defaultID = Default
	}
	if err := ValidateID(defaultID); err != nil {
		return nil, fmt.Errorf("default tenant: %w", err)
	}
	r := &Registry{
		defaultID: defaultID,
		declared:  make(map[string]Quotas),
		tenants:   make(map[string]*Tenant),
		now:       time.Now,
	}
	for _, o := range opts {
		o(r)
	}
	r.tenants[defaultID] = r.newTenant(defaultID, Quotas{})
	return r, nil
}

func (r *Registry) newTenant(id string, q Quotas) *Tenant {
	t := &Tenant{id: id, quotas: q, now: r.now}
	t.last = r.now()
	t.tokens = q.burst()
	return t
}

// DefaultID returns the id every tenant-less request resolves to.
func (r *Registry) DefaultID() string { return r.defaultID }

// Declare registers quotas for a tenant id ("*" sets the default
// quotas applied to every tenant not declared explicitly). Declaring a
// tenant in use re-creates its quota state, so declare before traffic.
func (r *Registry) Declare(id string, q Quotas) error {
	if id == "*" {
		r.mu.Lock()
		defer r.mu.Unlock()
		qq := q
		r.wildcard = &qq
		return nil
	}
	if err := ValidateID(id); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.declared[id] = q
	if _, used := r.tenants[id]; used {
		r.tenants[id] = r.newTenant(id, q)
	}
	return nil
}

// quotasFor picks the quotas a new tenant id gets: declared > wildcard
// > unlimited. Callers hold r.mu.
func (r *Registry) quotasFor(id string) Quotas {
	if q, ok := r.declared[id]; ok {
		return q
	}
	if r.wildcard != nil {
		return *r.wildcard
	}
	return Quotas{}
}

// Canonical maps an externally supplied tenant id to its canonical
// form: the empty string is the default tenant.
func (r *Registry) Canonical(id string) string {
	if id == "" {
		return r.defaultID
	}
	return id
}

// Resolve validates id (empty = default tenant) and returns its
// tenant, creating it on first use.
func (r *Registry) Resolve(id string) (*Tenant, error) {
	id = r.Canonical(id)
	r.mu.RLock()
	t, ok := r.tenants[id]
	r.mu.RUnlock()
	if ok {
		return t, nil
	}
	if err := ValidateID(id); err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if t, ok := r.tenants[id]; ok {
		return t, nil
	}
	t = r.newTenant(id, r.quotasFor(id))
	r.tenants[id] = t
	return t, nil
}

// Lookup returns a tenant in use without creating one.
func (r *Registry) Lookup(id string) (*Tenant, bool) {
	id = r.Canonical(id)
	r.mu.RLock()
	defer r.mu.RUnlock()
	t, ok := r.tenants[id]
	return t, ok
}

// Known reports whether a tenant is in use or declared. Listing filters
// use it so `?tenant=` on an id that was never declared or used is a
// client error, not a silent empty result.
func (r *Registry) Known(id string) bool {
	id = r.Canonical(id)
	r.mu.RLock()
	defer r.mu.RUnlock()
	_, used := r.tenants[id]
	_, declared := r.declared[id]
	return used || declared
}

// IDs returns the ids of the tenants in use, sorted.
func (r *Registry) IDs() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	ids := make([]string, 0, len(r.tenants))
	for id := range r.tenants {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// ParseQuotaSpec parses one -tenant-quotas flag value of the form
//
//	tenant:max-rules=100,max-pending-events=64,rate=50,burst=100
//
// where tenant is a slug or "*" and every key is optional.
func ParseQuotaSpec(spec string) (string, Quotas, error) {
	id, rest, ok := strings.Cut(spec, ":")
	if !ok {
		return "", Quotas{}, fmt.Errorf("quota spec %q: want tenant:key=value,...", spec)
	}
	id = strings.TrimSpace(id)
	if id != "*" {
		if err := ValidateID(id); err != nil {
			return "", Quotas{}, err
		}
	}
	var q Quotas
	for _, kv := range strings.Split(rest, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return "", Quotas{}, fmt.Errorf("quota spec %q: bad pair %q", spec, kv)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		switch key {
		case "max-rules":
			n, err := strconv.Atoi(val)
			if err != nil || n < 0 {
				return "", Quotas{}, fmt.Errorf("quota spec %q: max-rules %q", spec, val)
			}
			q.MaxRules = n
		case "max-pending-events":
			n, err := strconv.Atoi(val)
			if err != nil || n < 0 {
				return "", Quotas{}, fmt.Errorf("quota spec %q: max-pending-events %q", spec, val)
			}
			q.MaxPendingEvents = n
		case "rate":
			f, err := strconv.ParseFloat(val, 64)
			if err != nil || f < 0 {
				return "", Quotas{}, fmt.Errorf("quota spec %q: rate %q", spec, val)
			}
			q.EventRate = f
		case "burst":
			n, err := strconv.Atoi(val)
			if err != nil || n < 0 {
				return "", Quotas{}, fmt.Errorf("quota spec %q: burst %q", spec, val)
			}
			q.EventBurst = n
		default:
			return "", Quotas{}, fmt.Errorf("quota spec %q: unknown key %q", spec, key)
		}
	}
	return id, q, nil
}
