package grh

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unicode/utf8"

	"repro/internal/bindings"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/ruleml"
	"repro/internal/xmltree"
)

// faulty is a scriptable component service for fault injection: it can
// be told to fail the next N requests with a 5xx, return garbage, or be
// down entirely, and it counts every request it sees by method.
type faulty struct {
	mu       sync.Mutex
	failNext int  // answer this many requests with 503 first
	garbage  int  // answer this many requests with an unparsable body
	down     bool // 503 everything
	calls    int
	posts    int
	gets     int
}

func (f *faulty) handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		f.calls++
		if r.Method == http.MethodPost {
			f.posts++
		} else {
			f.gets++
		}
		fail := f.down
		if f.failNext > 0 {
			f.failNext--
			fail = true
		}
		garbage := false
		if !fail && f.garbage > 0 {
			f.garbage--
			garbage = true
		}
		f.mu.Unlock()
		switch {
		case fail:
			http.Error(w, "injected failure", http.StatusServiceUnavailable)
		case garbage:
			fmt.Fprint(w, "<<<this is not XML>>>")
		default:
			// A well-formed empty log:answers document with one empty
			// tuple, decodable by aware and opaque paths alike.
			fmt.Fprint(w, protocol.EncodeAnswers(protocol.NewAnswer("r", "c", bindings.Unit())).String())
		}
	})
}

func (f *faulty) counts() (calls, posts, gets int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls, f.posts, f.gets
}

// fakeClock drives breaker cool-downs without real sleeping.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// newResilientGRH wires a GRH against the faulty service with instant
// backoff sleeps and a fake clock, returning the hub for counter asserts.
func newResilientGRH(t *testing.T, f *faulty, opts ...Option) (*GRH, *httptest.Server, *obs.Hub, *fakeClock) {
	t.Helper()
	srv := httptest.NewServer(f.handler())
	t.Cleanup(srv.Close)
	hub := obs.NewHub()
	g := New(append([]Option{WithObs(hub)}, opts...)...)
	g.sleep = func(time.Duration) {}
	clk := &fakeClock{t: time.Unix(1_000_000, 0)}
	g.now = clk.now
	if err := g.Register(Descriptor{Language: "http://svc/", FrameworkAware: true, Endpoint: srv.URL}); err != nil {
		t.Fatal(err)
	}
	return g, srv, hub, clk
}

func awareQuery() Component {
	return Component{
		Rule:     "r",
		Comp:     ruleml.Component{Kind: ruleml.QueryComponent, ID: "query[1]", Language: "http://svc/", Expression: xmltree.NewElement("http://svc/", "q")},
		Bindings: bindings.NewRelation(bindings.MustTuple("X", bindings.Str("1"))),
	}
}

func awareAction() Component {
	return Component{
		Rule:     "r",
		Comp:     ruleml.Component{Kind: ruleml.ActionComponent, ID: "action[1]", Language: "http://svc/", Expression: xmltree.NewElement("http://svc/", "a")},
		Bindings: bindings.NewRelation(bindings.MustTuple("X", bindings.Str("1"))),
	}
}

func counter(hub *obs.Hub, name, label, value string) int64 {
	return hub.Metrics().CounterVec(name, "", label).With(value).Value()
}

// TestRetryThenSucceed scripts the service to fail twice and then
// recover: a query dispatch must complete via retry, with the retries
// visible in grh_retries_total.
func TestRetryThenSucceed(t *testing.T) {
	f := &faulty{failNext: 2}
	g, _, hub, _ := newResilientGRH(t, f,
		WithRetry(RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond}))
	a, err := g.Dispatch(protocol.Query, awareQuery())
	if err != nil {
		t.Fatalf("dispatch should succeed on the third attempt: %v", err)
	}
	if len(a.Rows) != 1 {
		t.Errorf("rows = %+v", a.Rows)
	}
	if calls, _, _ := f.counts(); calls != 3 {
		t.Errorf("service saw %d calls, want 3 (2 failures + success)", calls)
	}
	if v := counter(hub, "grh_retries_total", "kind", "query"); v != 2 {
		t.Errorf("grh_retries_total{query} = %d, want 2", v)
	}
	if v := counter(hub, "grh_errors_total", "reason", "http-status"); v != 2 {
		t.Errorf("grh_errors_total{http-status} = %d, want 2 (each failed attempt counted)", v)
	}
}

// TestRetryExhausted: when the service keeps failing, the dispatch fails
// after exactly MaxAttempts tries.
func TestRetryExhausted(t *testing.T) {
	f := &faulty{down: true}
	g, _, hub, _ := newResilientGRH(t, f,
		WithRetry(RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond}))
	if _, err := g.Dispatch(protocol.Query, awareQuery()); err == nil {
		t.Fatal("dispatch against a down service must fail")
	}
	if calls, _, _ := f.counts(); calls != 3 {
		t.Errorf("service saw %d calls, want 3", calls)
	}
	if v := counter(hub, "grh_retries_total", "kind", "query"); v != 2 {
		t.Errorf("grh_retries_total{query} = %d, want 2", v)
	}
}

// TestActionsNeverRetried: actions may have side effects, so a failing
// action dispatch must issue exactly one POST even with retry enabled.
func TestActionsNeverRetried(t *testing.T) {
	f := &faulty{down: true}
	g, _, hub, _ := newResilientGRH(t, f,
		WithRetry(RetryPolicy{MaxAttempts: 5, BaseDelay: time.Millisecond}))
	if _, err := g.Dispatch(protocol.Action, awareAction()); err == nil {
		t.Fatal("action dispatch against a down service must fail")
	}
	if calls, posts, _ := f.counts(); calls != 1 || posts != 1 {
		t.Errorf("service saw %d calls (%d POSTs), want exactly 1 action POST", calls, posts)
	}
	if v := counter(hub, "grh_retries_total", "kind", "action"); v != 0 {
		t.Errorf("grh_retries_total{action} = %d, want 0", v)
	}
}

// TestIdenticalActionsEachDispatched: actions may have side effects, so N
// identical concurrent action dispatches — same rule, component and input
// relation — reach the service N times; none is collapsed onto another.
func TestIdenticalActionsEachDispatched(t *testing.T) {
	hub := obs.NewHub()
	var calls atomic.Int64
	g := New(WithObs(hub))
	const lang = "http://test/action"
	if err := g.Register(Descriptor{Language: lang, FrameworkAware: true, Local: ServiceFunc(func(*protocol.Request) (*protocol.Answer, error) {
		calls.Add(1)
		return &protocol.Answer{}, nil
	})}); err != nil {
		t.Fatal(err)
	}
	rel := bindings.NewRelation()
	for i := 0; i < 10; i++ {
		rel.Add(bindings.MustTuple("X", bindings.Str(fmt.Sprint(i))))
	}
	comp := Component{
		Rule:     "r",
		Comp:     ruleml.Component{Kind: ruleml.ActionComponent, ID: "action[1]", Language: lang, Expression: xmltree.NewElement(lang, "do")},
		Bindings: rel,
	}
	const n = 8
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := g.Dispatch(protocol.Action, comp); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if got := calls.Load(); got != n {
		t.Fatalf("service saw %d action requests for %d identical dispatches, want every one", got, n)
	}
	if v := counter(hub, "grh_requests_total", "kind", "action"); v != n {
		t.Errorf("grh_requests_total{action} = %d, want %d", v, n)
	}
}

// TestOpaqueActionNeverRetried covers the framework-unaware path: a
// failing opaque action GET must not be replayed either.
func TestOpaqueActionNeverRetried(t *testing.T) {
	f := &faulty{down: true}
	srv := httptest.NewServer(f.handler())
	defer srv.Close()
	hub := obs.NewHub()
	g := New(WithObs(hub), WithRetry(RetryPolicy{MaxAttempts: 5, BaseDelay: time.Millisecond}))
	g.sleep = func(time.Duration) {}
	_, err := g.Dispatch(protocol.Action, Component{
		Rule:     "r",
		Comp:     ruleml.Component{Kind: ruleml.ActionComponent, ID: "action[1]", Opaque: true, Language: "raw", Service: srv.URL, Text: "do($X)"},
		Bindings: bindings.NewRelation(bindings.MustTuple("X", bindings.Str("1"))),
	})
	if err == nil {
		t.Fatal("opaque action against a down service must fail")
	}
	if calls, _, gets := f.counts(); calls != 1 || gets != 1 {
		t.Errorf("service saw %d calls (%d GETs), want exactly 1", calls, gets)
	}
	if v := counter(hub, "grh_retries_total", "kind", "action"); v != 0 {
		t.Errorf("grh_retries_total{action} = %d, want 0", v)
	}
}

// TestOpaqueQueryRetries: opaque per-tuple GETs are idempotent reads and
// do retry.
func TestOpaqueQueryRetries(t *testing.T) {
	f := &faulty{failNext: 1}
	srv := httptest.NewServer(f.handler())
	defer srv.Close()
	hub := obs.NewHub()
	g := New(WithObs(hub), WithRetry(RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond}))
	g.sleep = func(time.Duration) {}
	_, err := g.Dispatch(protocol.Query, Component{
		Rule:     "r",
		Comp:     ruleml.Component{Kind: ruleml.QueryComponent, ID: "query[1]", Opaque: true, Language: "raw", Service: srv.URL, Text: "q($X)"},
		Bindings: bindings.NewRelation(bindings.MustTuple("X", bindings.Str("1"))),
	})
	if err != nil {
		t.Fatalf("opaque query should succeed via retry: %v", err)
	}
	if calls, _, _ := f.counts(); calls != 2 {
		t.Errorf("service saw %d calls, want 2", calls)
	}
	if v := counter(hub, "grh_retries_total", "kind", "query"); v != 1 {
		t.Errorf("grh_retries_total{query} = %d, want 1", v)
	}
}

// TestBreakerTripAndRecover drives the full closed → open → half-open →
// closed cycle: a persistently failing endpoint trips the breaker, load
// is shed without touching the service, and after the cool-down a probe
// closes the circuit again.
func TestBreakerTripAndRecover(t *testing.T) {
	f := &faulty{down: true}
	g, srv, hub, clk := newResilientGRH(t, f,
		WithBreaker(BreakerPolicy{FailureThreshold: 2, Cooldown: time.Minute}))
	gauge := func() float64 {
		return hub.Metrics().GaugeVec("grh_breaker_state", "", "endpoint").With(srv.URL).Value()
	}

	// Two consecutive failures trip the breaker.
	for i := 0; i < 2; i++ {
		if _, err := g.Dispatch(protocol.Query, awareQuery()); err == nil {
			t.Fatal("dispatch against a down service must fail")
		}
	}
	if got := gauge(); got != BreakerOpen {
		t.Fatalf("breaker state = %v, want open (%d)", got, BreakerOpen)
	}
	if v := counter(hub, "grh_breaker_open_total", "endpoint", srv.URL); v != 1 {
		t.Errorf("grh_breaker_open_total = %d, want 1", v)
	}

	// While open, dispatches are shed without reaching the service.
	callsBefore, _, _ := f.counts()
	_, err := g.Dispatch(protocol.Query, awareQuery())
	if !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("shed dispatch error = %v, want ErrCircuitOpen", err)
	}
	if calls, _, _ := f.counts(); calls != callsBefore {
		t.Errorf("open breaker still reached the service (%d → %d calls)", callsBefore, calls)
	}
	if v := counter(hub, "grh_errors_total", "reason", "breaker"); v != 1 {
		t.Errorf("grh_errors_total{breaker} = %d, want 1", v)
	}

	// After the cool-down the service has recovered; the half-open probe
	// succeeds and closes the circuit.
	f.mu.Lock()
	f.down = false
	f.mu.Unlock()
	clk.advance(2 * time.Minute)
	if _, err := g.Dispatch(protocol.Query, awareQuery()); err != nil {
		t.Fatalf("half-open probe should succeed: %v", err)
	}
	if got := gauge(); got != BreakerClosed {
		t.Errorf("breaker state after recovery = %v, want closed", got)
	}
	if _, err := g.Dispatch(protocol.Query, awareQuery()); err != nil {
		t.Errorf("closed breaker should admit dispatches: %v", err)
	}
}

// TestBreakerHalfOpenFailureReopens: a failing half-open probe sends the
// breaker straight back to open for another cool-down.
func TestBreakerHalfOpenFailureReopens(t *testing.T) {
	f := &faulty{down: true}
	g, srv, hub, clk := newResilientGRH(t, f,
		WithBreaker(BreakerPolicy{FailureThreshold: 1, Cooldown: time.Minute}))
	if _, err := g.Dispatch(protocol.Query, awareQuery()); err == nil {
		t.Fatal("first dispatch must fail and trip the breaker")
	}
	clk.advance(2 * time.Minute)
	if _, err := g.Dispatch(protocol.Query, awareQuery()); err == nil {
		t.Fatal("half-open probe against a down service must fail")
	}
	if got := hub.Metrics().GaugeVec("grh_breaker_state", "", "endpoint").With(srv.URL).Value(); got != BreakerOpen {
		t.Errorf("breaker state after failed probe = %v, want open", got)
	}
	if v := counter(hub, "grh_breaker_open_total", "endpoint", srv.URL); v != 2 {
		t.Errorf("grh_breaker_open_total = %d, want 2 (initial trip + failed probe)", v)
	}
	// Still shedding during the second cool-down.
	if _, err := g.Dispatch(protocol.Query, awareQuery()); !errors.Is(err, ErrCircuitOpen) {
		t.Errorf("dispatch during second cool-down = %v, want ErrCircuitOpen", err)
	}
}

// TestBreakerDoesNotRetryPastOpen: with retry and breaker combined, a
// breaker that trips mid-retry stops the retry loop instead of sleeping
// through attempts that would be shed anyway.
func TestBreakerRetryInteraction(t *testing.T) {
	f := &faulty{down: true}
	g, _, hub, _ := newResilientGRH(t, f,
		WithRetry(RetryPolicy{MaxAttempts: 10, BaseDelay: time.Millisecond}),
		WithBreaker(BreakerPolicy{FailureThreshold: 2, Cooldown: time.Minute}))
	_, err := g.Dispatch(protocol.Query, awareQuery())
	if err == nil {
		t.Fatal("dispatch must fail")
	}
	// The breaker tripped after 2 failed attempts; the third admission is
	// refused, so the service saw exactly the threshold number of calls.
	if calls, _, _ := f.counts(); calls != 2 {
		t.Errorf("service saw %d calls, want 2 (breaker stops the retry loop)", calls)
	}
	if v := counter(hub, "grh_errors_total", "reason", "breaker"); v != 1 {
		t.Errorf("grh_errors_total{breaker} = %d, want 1", v)
	}
}

// TestSetClientConcurrentWithDispatch: SetClient must not race with
// in-flight dispatches reading the client (run under -race).
func TestSetClientConcurrentWithDispatch(t *testing.T) {
	f := &faulty{}
	g, _, _, _ := newResilientGRH(t, f)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := g.Dispatch(protocol.Query, awareQuery()); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for i := 0; i < 50; i++ {
		g.SetClient(&http.Client{Timeout: DefaultTimeout})
	}
	close(stop)
	wg.Wait()
}

// TestTruncateRuneBoundary: truncation must never slice mid-rune.
func TestTruncateRuneBoundary(t *testing.T) {
	cases := []struct {
		s    string
		n    int
		want string
	}{
		{"héllo", 2, "h…"},  // é is 2 bytes starting at index 1
		{"héllo", 3, "hé…"}, // boundary exactly after é
		{"ascii", 10, "ascii"},
		{"日本語", 4, "日…"}, // each rune is 3 bytes
		{"日本語", 3, "日…"},
		{"日本語", 2, "…"},
	}
	for _, c := range cases {
		got := truncate(c.s, c.n)
		if got != c.want {
			t.Errorf("truncate(%q, %d) = %q, want %q", c.s, c.n, got, c.want)
		}
		if !utf8.ValidString(got) {
			t.Errorf("truncate(%q, %d) = %q is not valid UTF-8", c.s, c.n, got)
		}
	}
}

// TestTruncateMultiByteHTTPBody: an error message carrying a truncated
// multi-byte HTTP body stays valid UTF-8 end to end.
func TestTruncateMultiByteHTTPBody(t *testing.T) {
	var body string
	for len(body) < 400 {
		body += "納車納車納車納車"
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, body, http.StatusInternalServerError)
	}))
	defer srv.Close()
	g := New()
	g.Register(Descriptor{Language: "http://multibyte/", FrameworkAware: true, Endpoint: srv.URL})
	_, err := g.Dispatch(protocol.Query, Component{
		Rule:     "r",
		Comp:     ruleml.Component{Kind: ruleml.QueryComponent, Language: "http://multibyte/", Expression: xmltree.NewElement("http://multibyte/", "q")},
		Bindings: bindings.NewRelation(),
	})
	if err == nil {
		t.Fatal("dispatch must fail with HTTP 500")
	}
	if !utf8.ValidString(err.Error()) {
		t.Errorf("error message is not valid UTF-8: %q", err.Error())
	}
}

// TestRetryBackoffSchedule pins the exponential backoff shape without
// jitter: base, 2×base, 4×base, capped at MaxDelay.
func TestRetryBackoffSchedule(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 5, BaseDelay: 100 * time.Millisecond, MaxDelay: 300 * time.Millisecond}
	want := []time.Duration{100, 200, 300, 300}
	for i, w := range want {
		if got := p.backoff(i); got != w*time.Millisecond {
			t.Errorf("backoff(%d) = %v, want %v", i, got, w*time.Millisecond)
		}
	}
	// Jitter stays within ±Jitter of the nominal value.
	pj := RetryPolicy{MaxAttempts: 2, BaseDelay: 100 * time.Millisecond, Jitter: 0.5}
	for i := 0; i < 100; i++ {
		d := pj.backoff(0)
		if d < 50*time.Millisecond || d > 150*time.Millisecond {
			t.Fatalf("jittered backoff %v outside [50ms,150ms]", d)
		}
	}
}
