package tenant

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestValidateID(t *testing.T) {
	ok := []string{"public", "a", "a1", "acme-corp", "t-1-2-3", "x0"}
	for _, id := range ok {
		if err := ValidateID(id); err != nil {
			t.Errorf("ValidateID(%q) = %v, want nil", id, err)
		}
	}
	bad := []string{"", "Public", "-acme", "acme-", "a--b", "a b", "tenant/x", "über",
		"0123456789012345678901234567890123456789012345678901234567890123"} // 64 chars
	for _, id := range bad {
		if err := ValidateID(id); err == nil {
			t.Errorf("ValidateID(%q) = nil, want error", id)
		}
	}
}

func TestRegistryDefaultAndResolve(t *testing.T) {
	r, err := NewRegistry("")
	if err != nil {
		t.Fatal(err)
	}
	if r.DefaultID() != Default {
		t.Fatalf("DefaultID() = %q, want %q", r.DefaultID(), Default)
	}
	def, err := r.Resolve("")
	if err != nil {
		t.Fatal(err)
	}
	if def.ID() != Default {
		t.Fatalf("Resolve(\"\") = %q, want default", def.ID())
	}
	a1, err := r.Resolve("acme")
	if err != nil {
		t.Fatal(err)
	}
	a2, err := r.Resolve("acme")
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 {
		t.Fatal("Resolve must return the same tenant for the same id")
	}
	if _, err := r.Resolve("Not A Slug"); err == nil {
		t.Fatal("Resolve of an invalid id must fail")
	}
	if _, ok := r.Lookup("never-used"); ok {
		t.Fatal("Lookup must not create tenants")
	}
	if _, ok := r.Lookup("acme"); !ok {
		t.Fatal("Lookup must find used tenants")
	}
	ids := r.IDs()
	if len(ids) != 2 || ids[0] != "acme" || ids[1] != Default {
		t.Fatalf("IDs() = %v", ids)
	}
}

func TestRegistryDeclareAndWildcard(t *testing.T) {
	r, err := NewRegistry("public")
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Declare("acme", Quotas{MaxRules: 2}); err != nil {
		t.Fatal(err)
	}
	if err := r.Declare("*", Quotas{MaxRules: 1}); err != nil {
		t.Fatal(err)
	}
	// A declaration alone is known to listing filters but creates no
	// tenant in use.
	if _, ok := r.Lookup("acme"); ok || !r.Known("acme") || r.Known("other") {
		t.Fatalf("declared acme: Lookup ok=%v Known=%v; undeclared other Known=%v", ok, r.Known("acme"), r.Known("other"))
	}
	if ids := r.IDs(); len(ids) != 1 || ids[0] != "public" {
		t.Fatalf("IDs() before use = %v, want only the default", ids)
	}
	acme, _ := r.Resolve("acme")
	if acme.Quotas().MaxRules != 2 {
		t.Fatalf("declared quotas lost: %+v", acme.Quotas())
	}
	other, _ := r.Resolve("other")
	if other.Quotas().MaxRules != 1 {
		t.Fatalf("wildcard quotas not applied: %+v", other.Quotas())
	}
	// The default tenant pre-dates the wildcard declaration, so it keeps
	// its unlimited quotas.
	def, _ := r.Resolve("")
	if def.Quotas().MaxRules != 0 {
		t.Fatalf("default tenant quotas changed: %+v", def.Quotas())
	}
}

func TestRuleQuota(t *testing.T) {
	r, _ := NewRegistry("public")
	if err := r.Declare("acme", Quotas{MaxRules: 2}); err != nil {
		t.Fatal(err)
	}
	acme, _ := r.Resolve("acme")
	if err := acme.AcquireRule(); err != nil {
		t.Fatal(err)
	}
	if err := acme.AcquireRule(); err != nil {
		t.Fatal(err)
	}
	err := acme.AcquireRule()
	if !IsQuota(err) {
		t.Fatalf("third AcquireRule = %v, want quota error", err)
	}
	var qe *QuotaError
	if !errors.As(err, &qe) || qe.Reason != "max-rules" || qe.Tenant != "acme" {
		t.Fatalf("quota error = %+v", qe)
	}
	acme.ReleaseRule()
	if err := acme.AcquireRule(); err != nil {
		t.Fatalf("after release: %v", err)
	}
	// ForceRule bypasses the cap (recovery path) but still counts.
	acme.ForceRule()
	if got := acme.Rules(); got != 3 {
		t.Fatalf("Rules() = %d, want 3", got)
	}
}

func TestPendingQuota(t *testing.T) {
	r, _ := NewRegistry("public")
	r.Declare("acme", Quotas{MaxPendingEvents: 3})
	acme, _ := r.Resolve("acme")
	if err := acme.AcquirePending(2); err != nil {
		t.Fatal(err)
	}
	// All-or-nothing: 2+2 > 3 admits none.
	if err := acme.AcquirePending(2); !IsQuota(err) {
		t.Fatalf("over-quota AcquirePending = %v", err)
	}
	if got := acme.Pending(); got != 2 {
		t.Fatalf("Pending() = %d after rejected acquire, want 2", got)
	}
	if err := acme.AcquirePending(1); err != nil {
		t.Fatal(err)
	}
	acme.ReleasePending(3)
	if got := acme.Pending(); got != 0 {
		t.Fatalf("Pending() = %d after release, want 0", got)
	}
}

func TestRateQuotaDeterministic(t *testing.T) {
	clock := time.Unix(1000, 0)
	r, _ := NewRegistry("public", WithClock(func() time.Time { return clock }))
	r.Declare("acme", Quotas{EventRate: 10, EventBurst: 5})
	acme, _ := r.Resolve("acme")

	// Bucket starts full at burst depth.
	if err := acme.AdmitEvents(5); err != nil {
		t.Fatal(err)
	}
	if err := acme.AdmitEvents(1); !IsQuota(err) {
		t.Fatalf("drained bucket admitted: %v", err)
	}
	// 300ms at 10/s refills 3 tokens.
	clock = clock.Add(300 * time.Millisecond)
	if err := acme.AdmitEvents(3); err != nil {
		t.Fatal(err)
	}
	if err := acme.AdmitEvents(1); !IsQuota(err) {
		t.Fatalf("over-refill admit: %v", err)
	}
	// A long idle period caps at burst, not rate*elapsed.
	clock = clock.Add(time.Hour)
	if err := acme.AdmitEvents(6); !IsQuota(err) {
		t.Fatalf("bucket exceeded burst after idle: %v", err)
	}
	if err := acme.AdmitEvents(5); err != nil {
		t.Fatal(err)
	}
}

func TestRateQuotaDefaultBurst(t *testing.T) {
	clock := time.Unix(0, 0)
	r, _ := NewRegistry("public", WithClock(func() time.Time { return clock }))
	r.Declare("a", Quotas{EventRate: 2.5})
	a, _ := r.Resolve("a")
	// burst defaults to ceil(rate) = 3
	if err := a.AdmitEvents(3); err != nil {
		t.Fatal(err)
	}
	if err := a.AdmitEvents(1); !IsQuota(err) {
		t.Fatalf("default burst too deep: %v", err)
	}
}

// TestConcurrentRuleQuotaExact races N goroutines against a max-rules
// quota and asserts the boundary is exact: precisely MaxRules
// acquisitions succeed, no over- or under-admission.
func TestConcurrentRuleQuotaExact(t *testing.T) {
	const limit, racers = 37, 128
	r, _ := NewRegistry("public")
	r.Declare("acme", Quotas{MaxRules: limit})
	acme, _ := r.Resolve("acme")

	var admitted, rejected atomic.Int64
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if err := acme.AcquireRule(); err == nil {
				admitted.Add(1)
			} else if IsQuota(err) {
				rejected.Add(1)
			}
		}()
	}
	close(start)
	wg.Wait()
	if admitted.Load() != limit {
		t.Fatalf("admitted %d rule slots, want exactly %d", admitted.Load(), limit)
	}
	if rejected.Load() != racers-limit {
		t.Fatalf("rejected %d, want %d", rejected.Load(), racers-limit)
	}
	if acme.Rules() != limit {
		t.Fatalf("Rules() = %d, want %d", acme.Rules(), limit)
	}
}

// TestConcurrentRateQuotaExact races N goroutines against a frozen
// token bucket: with the clock pinned there is no refill, so exactly
// `burst` single-event admissions may succeed.
func TestConcurrentRateQuotaExact(t *testing.T) {
	const burst, racers = 50, 200
	clock := time.Unix(500, 0)
	var clockMu sync.Mutex
	now := func() time.Time {
		clockMu.Lock()
		defer clockMu.Unlock()
		return clock
	}
	r, _ := NewRegistry("public", WithClock(now))
	r.Declare("acme", Quotas{EventRate: 1, EventBurst: burst})
	acme, _ := r.Resolve("acme")

	var admitted atomic.Int64
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if err := acme.AdmitEvents(1); err == nil {
				admitted.Add(1)
			}
		}()
	}
	close(start)
	wg.Wait()
	if admitted.Load() != burst {
		t.Fatalf("admitted %d events from a %d-token bucket, want exactly %d", admitted.Load(), burst, burst)
	}
}

// TestConcurrentPendingQuotaExact races mixed-size acquisitions against
// a pending cap and asserts the sum of admitted sizes never exceeds the
// cap and the final count equals admitted-released.
func TestConcurrentPendingQuotaExact(t *testing.T) {
	const cap, racers = 64, 100
	r, _ := NewRegistry("public")
	r.Declare("acme", Quotas{MaxPendingEvents: cap})
	acme, _ := r.Resolve("acme")

	var admitted atomic.Int64
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < racers; i++ {
		n := 1 + i%3
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			<-start
			if err := acme.AcquirePending(n); err == nil {
				admitted.Add(int64(n))
			}
		}(n)
	}
	close(start)
	wg.Wait()
	if got := admitted.Load(); got > cap {
		t.Fatalf("admitted %d pending events over the %d cap", got, cap)
	}
	if got := acme.Pending(); int64(got) != admitted.Load() {
		t.Fatalf("Pending() = %d, admitted = %d", got, admitted.Load())
	}
}

func TestParseQuotaSpec(t *testing.T) {
	id, q, err := ParseQuotaSpec("acme:max-rules=100,max-pending-events=64,rate=50,burst=100")
	if err != nil {
		t.Fatal(err)
	}
	if id != "acme" || q.MaxRules != 100 || q.MaxPendingEvents != 64 || q.EventRate != 50 || q.EventBurst != 100 {
		t.Fatalf("parsed %q %+v", id, q)
	}
	id, q, err = ParseQuotaSpec("*:rate=10")
	if err != nil {
		t.Fatal(err)
	}
	if id != "*" || q.EventRate != 10 {
		t.Fatalf("parsed %q %+v", id, q)
	}
	if _, _, err := ParseQuotaSpec("no-colon"); err == nil {
		t.Fatal("missing colon must fail")
	}
	if _, _, err := ParseQuotaSpec("acme:bogus=1"); err == nil {
		t.Fatal("unknown key must fail")
	}
	if _, _, err := ParseQuotaSpec("acme:rate=-1"); err == nil {
		t.Fatal("negative rate must fail")
	}
	if _, _, err := ParseQuotaSpec("Bad Tenant:rate=1"); err == nil {
		t.Fatal("invalid tenant must fail")
	}
}
