// Resilience layer of the GRH↔service dispatch path: retry with
// exponential backoff + jitter for idempotent request kinds, and a
// per-endpoint circuit breaker that sheds load while a service is down
// and probes for recovery. Remote component services are the paper's
// whole architecture (every Event/Query/Test/Action component is a
// remote call, Section 4.4), so one flaky language service must not
// stall or kill every rule instance that touches it.

package grh

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/protocol"
)

// ErrCircuitOpen is wrapped into dispatch errors rejected by an open
// circuit breaker; match with errors.Is.
var ErrCircuitOpen = errors.New("circuit open")

// RetryPolicy configures retry with exponential backoff for idempotent
// dispatches. Only queries and tests (framework-aware POSTs and opaque
// GETs alike) are retried: actions may have side effects, and replaying
// an event (un)registration against a service that already processed it
// could duplicate remote detection state. The zero value disables retry.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries including the first;
	// values ≤ 1 disable retry.
	MaxAttempts int
	// BaseDelay is the backoff before the first retry (50ms when 0);
	// it doubles per attempt up to MaxDelay.
	BaseDelay time.Duration
	// MaxDelay caps the backoff (2s when 0).
	MaxDelay time.Duration
	// Jitter randomizes each backoff by ±Jitter (a fraction in [0,1]),
	// decorrelating retry storms from many engine instances.
	Jitter float64
}

// DefaultRetryPolicy is a sane starting point: three total attempts,
// 50ms base backoff doubling to 2s, ±20% jitter.
var DefaultRetryPolicy = RetryPolicy{MaxAttempts: 3, BaseDelay: 50 * time.Millisecond, MaxDelay: 2 * time.Second, Jitter: 0.2}

// Enabled reports whether the policy retries at all.
func (p RetryPolicy) Enabled() bool { return p.MaxAttempts > 1 }

// backoff returns the sleep before retry number attempt+1 (attempt is
// 0-based over failed tries so far).
func (p RetryPolicy) backoff(attempt int) time.Duration {
	base := p.BaseDelay
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	cap := p.MaxDelay
	if cap <= 0 {
		cap = 2 * time.Second
	}
	d := base << uint(attempt)
	if d <= 0 || d > cap {
		d = cap
	}
	if p.Jitter > 0 {
		d = time.Duration(float64(d) * (1 + p.Jitter*(2*rand.Float64()-1)))
	}
	return d
}

// retryableKind reports whether a request kind is safe to replay.
func retryableKind(k protocol.RequestKind) bool {
	return k == protocol.Query || k == protocol.Test
}

// BreakerPolicy configures the per-endpoint circuit breaker. The zero
// value disables circuit breaking.
type BreakerPolicy struct {
	// FailureThreshold is the number of consecutive failures that trips
	// the breaker from closed to open; ≤ 0 disables the breaker.
	FailureThreshold int
	// Cooldown is how long an open breaker sheds load before admitting
	// a single half-open probe (30s when 0).
	Cooldown time.Duration
}

// DefaultBreakerPolicy trips after 5 consecutive failures and probes
// for recovery every 30 seconds.
var DefaultBreakerPolicy = BreakerPolicy{FailureThreshold: 5, Cooldown: 30 * time.Second}

// Enabled reports whether the policy breaks circuits at all.
func (p BreakerPolicy) Enabled() bool { return p.FailureThreshold > 0 }

func (p BreakerPolicy) cooldown() time.Duration {
	if p.Cooldown <= 0 {
		return 30 * time.Second
	}
	return p.Cooldown
}

// Breaker states as exposed by the grh_breaker_state{endpoint} gauge.
const (
	BreakerClosed   = 0
	BreakerHalfOpen = 1
	BreakerOpen     = 2
)

// breaker is one endpoint's circuit breaker: closed (normal), open
// (shedding load), half-open (admitting a single probe after cool-down).
type breaker struct {
	policy BreakerPolicy

	mu       sync.Mutex
	state    int
	fails    int       // consecutive failures while closed
	openedAt time.Time // when the breaker last tripped
	probing  bool      // a half-open probe is in flight
}

// allow reports whether a request may proceed, transitioning
// open → half-open after the cool-down. It returns the state after the
// decision for the state gauge.
func (b *breaker) allow(now time.Time) (ok bool, state int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true, BreakerClosed
	case BreakerOpen:
		if now.Sub(b.openedAt) < b.policy.cooldown() {
			return false, BreakerOpen
		}
		b.state = BreakerHalfOpen
		b.probing = true
		return true, BreakerHalfOpen
	default: // half-open: one probe at a time
		if b.probing {
			return false, BreakerHalfOpen
		}
		b.probing = true
		return true, BreakerHalfOpen
	}
}

// report records the outcome of an admitted request. It returns the
// resulting state and whether the breaker tripped open on this report.
func (b *breaker) report(success bool, now time.Time) (state int, tripped bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.probing = false
	if success {
		b.state = BreakerClosed
		b.fails = 0
		return BreakerClosed, false
	}
	switch b.state {
	case BreakerHalfOpen:
		// The probe failed: back to open for another cool-down.
		b.state = BreakerOpen
		b.openedAt = now
		return BreakerOpen, true
	case BreakerClosed:
		b.fails++
		if b.fails >= b.policy.FailureThreshold {
			b.state = BreakerOpen
			b.openedAt = now
			return BreakerOpen, true
		}
		return BreakerClosed, false
	default:
		return b.state, false
	}
}

// breakerSet lazily creates one breaker per endpoint URL.
type breakerSet struct {
	policy BreakerPolicy
	mu     sync.Mutex
	m      map[string]*breaker
}

func newBreakerSet(p BreakerPolicy) *breakerSet {
	return &breakerSet{policy: p, m: map[string]*breaker{}}
}

func (s *breakerSet) forEndpoint(endpoint string) *breaker {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.m[endpoint]
	if !ok {
		b = &breaker{policy: s.policy}
		s.m[endpoint] = b
	}
	return b
}

// admit asks the endpoint's breaker whether the request may proceed,
// updating the state gauge; a shed request counts as
// grh_errors_total{reason="breaker"}.
func (g *GRH) admit(endpoint string) error {
	b := g.breakers.forEndpoint(endpoint)
	if b == nil {
		return nil
	}
	ok, state := b.allow(g.now())
	g.met.breakerState.With(endpoint).Set(float64(state))
	if !ok {
		g.met.errors.With("breaker").Inc()
		return fmt.Errorf("grh: %s: %w", endpoint, ErrCircuitOpen)
	}
	return nil
}

// reportOutcome feeds a request outcome back to the endpoint's breaker
// and keeps the breaker instruments current.
func (g *GRH) reportOutcome(endpoint string, success bool) {
	b := g.breakers.forEndpoint(endpoint)
	if b == nil {
		return
	}
	state, tripped := b.report(success, g.now())
	g.met.breakerState.With(endpoint).Set(float64(state))
	if tripped {
		g.met.breakerOpen.With(endpoint).Inc()
		g.log.Warn("circuit breaker opened", obs.FieldEndpoint, endpoint)
	}
}

// exchange performs one resilient HTTP exchange against endpoint:
// breaker admission, the request issued by do with the current client,
// error classification, breaker feedback, and — for idempotent request
// kinds under an enabled RetryPolicy — retry with exponential backoff.
// Timeouts, transport errors and 5xx statuses are retryable and count
// against the breaker; 4xx statuses and undecodable bodies mean the
// service is up and answering, so they do neither.
func (g *GRH) exchange(kind protocol.RequestKind, verb, endpoint, traceID string, do func(c *http.Client) (*http.Response, error)) ([]byte, error) {
	attempts := 1
	if g.retry.Enabled() && retryableKind(kind) {
		attempts = g.retry.MaxAttempts
	}
	for attempt := 0; ; attempt++ {
		if err := g.admit(endpoint); err != nil {
			g.log.Warn("dispatch shed by open circuit", obs.FieldEndpoint, endpoint,
				obs.FieldTraceID, traceID, "kind", string(kind))
			return nil, err
		}
		retryAfter := func() bool {
			if attempt+1 >= attempts {
				return false
			}
			g.met.retries.With(string(kind)).Inc()
			g.log.Warn("dispatch retry", obs.FieldEndpoint, endpoint,
				obs.FieldTraceID, traceID, "kind", string(kind), "attempt", attempt+1)
			g.sleep(g.retry.backoff(attempt))
			return true
		}
		resp, err := do(g.httpClient())
		if err != nil {
			g.reportOutcome(endpoint, false)
			g.countHTTPErr(err)
			if retryAfter() {
				continue
			}
			g.log.Error("dispatch failed", obs.FieldEndpoint, endpoint,
				obs.FieldTraceID, traceID, "kind", string(kind), "error", err.Error())
			return nil, fmt.Errorf("grh: %s %s: %w", verb, endpoint, err)
		}
		body, rerr := io.ReadAll(io.LimitReader(resp.Body, protocol.MaxBodyBytes))
		resp.Body.Close()
		if rerr != nil {
			g.reportOutcome(endpoint, false)
			g.countHTTPErr(rerr)
			if retryAfter() {
				continue
			}
			return nil, fmt.Errorf("grh: read %s: %w", endpoint, rerr)
		}
		if resp.StatusCode != http.StatusOK {
			serverFault := resp.StatusCode >= 500
			g.reportOutcome(endpoint, !serverFault)
			g.met.errors.With("http-status").Inc()
			if serverFault && retryAfter() {
				continue
			}
			g.log.Error("dispatch failed", obs.FieldEndpoint, endpoint,
				obs.FieldTraceID, traceID, "kind", string(kind), "status", resp.StatusCode)
			return nil, fmt.Errorf("grh: %s: HTTP %d: %s", endpoint, resp.StatusCode, truncate(string(body), 300))
		}
		g.reportOutcome(endpoint, true)
		return body, nil
	}
}
