package grh

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bindings"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/ruleml"
	"repro/internal/xmltree"
)

// countingEcho is a local framework-aware service that counts its calls
// and echoes every input tuple with one functional result.
func countingEcho(calls *atomic.Int64) Service {
	return ServiceFunc(func(req *protocol.Request) (*protocol.Answer, error) {
		calls.Add(1)
		a := &protocol.Answer{RuleID: req.RuleID, Component: req.Component}
		for _, t := range req.Bindings.Tuples() {
			a.Rows = append(a.Rows, protocol.AnswerRow{Tuple: t, Results: []bindings.Value{bindings.Str("r")}})
		}
		return a, nil
	})
}

func queryComp(rule, lang string, rel *bindings.Relation) Component {
	return Component{
		Rule:     rule,
		Comp:     ruleml.Component{Kind: ruleml.QueryComponent, ID: "query[1]", Language: lang, Expression: xmltree.NewElement(lang, "q")},
		Bindings: rel,
	}
}

const cacheTestLang = "http://test/cache"

func newCachedGRH(t *testing.T, hub *obs.Hub, policy CachePolicy, svc Service) *GRH {
	t.Helper()
	g := New(WithObs(hub), WithCache(policy))
	if err := g.Register(Descriptor{Language: cacheTestLang, FrameworkAware: true, Local: svc}); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestCacheHitMissTTL(t *testing.T) {
	hub := obs.NewHub()
	var calls atomic.Int64
	g := newCachedGRH(t, hub, CachePolicy{MaxEntries: 8, TTL: time.Second}, countingEcho(&calls))
	clock := time.Unix(1000, 0)
	g.now = func() time.Time { return clock }

	rel := bindings.NewRelation(bindings.MustTuple("X", bindings.Str("1")))
	for i := 0; i < 3; i++ {
		a, err := g.Dispatch(protocol.Query, queryComp("r", cacheTestLang, rel))
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Rows) != 1 {
			t.Fatalf("dispatch %d: %d rows, want 1", i, len(a.Rows))
		}
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("service called %d times, want 1 (cache should absorb repeats)", got)
	}
	counter := func(name string) int64 { return hub.Metrics().Counter(name, "").Value() }
	if got := counter("grh_cache_hits_total"); got != 2 {
		t.Errorf("cache hits = %d, want 2", got)
	}
	if got := counter("grh_cache_misses_total"); got != 1 {
		t.Errorf("cache misses = %d, want 1", got)
	}

	// Past the TTL the entry expires: the next dispatch goes upstream again
	// and the expiry counts as an eviction.
	clock = clock.Add(2 * time.Second)
	if _, err := g.Dispatch(protocol.Query, queryComp("r", cacheTestLang, rel)); err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("service called %d times after TTL expiry, want 2", got)
	}
	if got := counter("grh_cache_evictions_total"); got != 1 {
		t.Errorf("evictions = %d, want 1 (TTL expiry)", got)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	hub := obs.NewHub()
	var calls atomic.Int64
	g := newCachedGRH(t, hub, CachePolicy{MaxEntries: 2, TTL: time.Hour}, countingEcho(&calls))

	rels := []*bindings.Relation{
		bindings.NewRelation(bindings.MustTuple("X", bindings.Str("a"))),
		bindings.NewRelation(bindings.MustTuple("X", bindings.Str("b"))),
		bindings.NewRelation(bindings.MustTuple("X", bindings.Str("c"))),
	}
	for _, rel := range rels {
		if _, err := g.Dispatch(protocol.Query, queryComp("r", cacheTestLang, rel)); err != nil {
			t.Fatal(err)
		}
	}
	// The third fill evicted the least recently used entry (rels[0]), so
	// re-dispatching it misses and goes upstream again.
	if _, err := g.Dispatch(protocol.Query, queryComp("r", cacheTestLang, rels[0])); err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 4 {
		t.Fatalf("service called %d times, want 4 (LRU eviction of the oldest entry)", got)
	}
	if got := hub.Metrics().Counter("grh_cache_evictions_total", "").Value(); got < 1 {
		t.Errorf("evictions = %d, want ≥1", got)
	}
	if got := g.cache.len(); got != 2 {
		t.Errorf("cache holds %d entries, want 2 (size bound)", got)
	}
}

// TestCacheDefensiveCopy proves a cached answer is never aliased across
// rule instances: mutating a served answer (tuple XML fragments and
// result values included) must not leak into later hits, and every hit
// is re-addressed to its requester.
func TestCacheDefensiveCopy(t *testing.T) {
	var calls atomic.Int64
	svc := ServiceFunc(func(req *protocol.Request) (*protocol.Answer, error) {
		calls.Add(1)
		frag := xmltree.MustParse(`<car><model>VW Golf</model></car>`).Root()
		return &protocol.Answer{
			RuleID:    req.RuleID,
			Component: req.Component,
			Rows: []protocol.AnswerRow{{
				Tuple:   bindings.Tuple{"Car": bindings.Fragment(frag)},
				Results: []bindings.Value{bindings.Fragment(frag.Clone())},
			}},
		}, nil
	})
	g := newCachedGRH(t, nil, DefaultCachePolicy, svc)

	rel := bindings.Unit()
	first, err := g.Dispatch(protocol.Query, queryComp("rule-a", cacheTestLang, rel))
	if err != nil {
		t.Fatal(err)
	}
	// Vandalize everything the first caller received.
	first.Rows[0].Tuple["Car"].Node().Children = nil
	first.Rows[0].Results[0].Node().Children = nil
	first.Rows[0].Tuple["Extra"] = bindings.Str("junk")

	second, err := g.Dispatch(protocol.Query, queryComp("rule-b", cacheTestLang, rel))
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 1 {
		t.Fatalf("service called %d times, want 1", calls.Load())
	}
	if second.RuleID != "rule-b" {
		t.Errorf("hit answer addressed to rule %q, want rule-b (re-stamped per requester)", second.RuleID)
	}
	if len(second.Rows[0].Tuple) != 1 {
		t.Errorf("hit tuple has %d vars, want 1 — first caller's mutation leaked into the cache", len(second.Rows[0].Tuple))
	}
	if got := second.Rows[0].Tuple["Car"].Node().TextContent(); got != "VW Golf" {
		t.Errorf("hit tuple fragment text = %q, want %q — XML tree aliased across instances", got, "VW Golf")
	}
	if got := second.Rows[0].Results[0].Node().TextContent(); got != "VW Golf" {
		t.Errorf("hit result fragment text = %q, want %q — XML tree aliased across instances", got, "VW Golf")
	}
}

// TestCacheKeyCanonicalization: the key must be order-insensitive over
// tuples (same relation → hit) but strictly discriminate values that are
// merely join-equal, like XML fragments with equal text content but
// different structure (Value.Key collides for those by design).
func TestCacheKeyCanonicalization(t *testing.T) {
	var calls atomic.Int64
	g := newCachedGRH(t, nil, DefaultCachePolicy, countingEcho(&calls))

	t1 := bindings.MustTuple("X", bindings.Str("1"))
	t2 := bindings.MustTuple("X", bindings.Str("2"))
	if _, err := g.Dispatch(protocol.Query, queryComp("r", cacheTestLang, bindings.NewRelation(t1, t2))); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Dispatch(protocol.Query, queryComp("r", cacheTestLang, bindings.NewRelation(t2, t1))); err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("service called %d times for reordered but equal relations, want 1", got)
	}

	// Same text content, different structure: join-equal (shared Value.Key)
	// but NOT the same input — a cache hit here would be a wrong answer.
	calls.Store(0)
	fragA := bindings.Fragment(xmltree.MustParse(`<m><inner/>x</m>`).Root())
	fragB := bindings.Fragment(xmltree.MustParse(`<n>x</n>`).Root())
	if fragA.Key() != fragB.Key() {
		t.Fatalf("test premise broken: fragments no longer share a join key")
	}
	relA := bindings.NewRelation(bindings.Tuple{"F": fragA})
	relB := bindings.NewRelation(bindings.Tuple{"F": fragB})
	if _, err := g.Dispatch(protocol.Query, queryComp("r", cacheTestLang, relA)); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Dispatch(protocol.Query, queryComp("r", cacheTestLang, relB)); err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("service called %d times for structurally different inputs, want 2 (no false hit)", got)
	}
}

// TestCacheCoalescing drives N concurrent identical dispatches into a
// gated service and asserts exactly one reaches it; every caller gets an
// independent (non-aliased) copy of the answer. Run under -race.
func TestCacheCoalescing(t *testing.T) {
	hub := obs.NewHub()
	var calls atomic.Int64
	entered := make(chan struct{})
	release := make(chan struct{})
	svc := ServiceFunc(func(req *protocol.Request) (*protocol.Answer, error) {
		if calls.Add(1) == 1 {
			close(entered)
			<-release
		}
		frag := xmltree.MustParse(`<v>ok</v>`).Root()
		return &protocol.Answer{Rows: []protocol.AnswerRow{{
			Tuple: bindings.Tuple{"V": bindings.Fragment(frag)},
		}}}, nil
	})
	g := newCachedGRH(t, hub, DefaultCachePolicy, svc)

	rel := bindings.NewRelation(bindings.MustTuple("X", bindings.Str("1")))
	const n = 16
	answers := make([]*protocol.Answer, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			answers[i], errs[i] = g.Dispatch(protocol.Query, queryComp("r", cacheTestLang, rel))
		}(i)
	}
	<-entered // the leader is inside the service; everyone else must wait
	close(release)
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Fatalf("service called %d times for %d concurrent identical dispatches, want 1", got, n)
	}
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("dispatch %d: %v", i, errs[i])
		}
		if len(answers[i].Rows) != 1 {
			t.Fatalf("dispatch %d: %d rows, want 1", i, len(answers[i].Rows))
		}
	}
	// Waiters either coalesced onto the leader's flight or hit the cache
	// the leader filled; both avoid the upstream call.
	m := hub.Metrics()
	coalesced := m.Counter("grh_coalesced_total", "").Value()
	hits := m.Counter("grh_cache_hits_total", "").Value()
	if coalesced+hits != n-1 {
		t.Errorf("coalesced=%d + hits=%d, want %d", coalesced, hits, n-1)
	}
	// Answers are independent copies: wrecking one leaves the rest intact.
	answers[0].Rows[0].Tuple["V"].Node().Children = nil
	for i := 1; i < n; i++ {
		if got := answers[i].Rows[0].Tuple["V"].Node().TextContent(); got != "ok" {
			t.Fatalf("answer %d aliased with answer 0: fragment text %q, want %q", i, got, "ok")
		}
	}
}

// TestCoalescingLateLeaderRechecksCache replays, step by step, a caller
// that misses the cache just before an earlier leader fills it and joins
// just after that leader completed its flight: it leads a flight of its
// own, and must serve the cached answer instead of calling upstream again.
// The miss is made observable by letting it evict an expired entry; the
// join is held back on the flight group's lock.
func TestCoalescingLateLeaderRechecksCache(t *testing.T) {
	hub := obs.NewHub()
	var calls atomic.Int64
	g := newCachedGRH(t, hub, CachePolicy{MaxEntries: 8, TTL: time.Second}, countingEcho(&calls))
	var clock atomic.Int64
	g.now = func() time.Time { return time.Unix(clock.Load(), 0) }
	clock.Store(1000)
	comp := queryComp("r", cacheTestLang, bindings.NewRelation(bindings.MustTuple("X", bindings.Str("1"))))
	first, err := g.Dispatch(protocol.Query, comp)
	if err != nil {
		t.Fatal(err)
	}
	clock.Store(5000) // the entry has expired

	g.flights.mu.Lock()
	done := make(chan error, 1)
	go func() {
		_, err := g.Dispatch(protocol.Query, comp)
		done <- err
	}()
	for g.cache.len() != 0 { // the late caller's lookup evicts the entry: it missed
		time.Sleep(time.Millisecond)
	}
	// An earlier leader fills the cache and completes its flight (it has
	// left the flight group) before the late caller joins.
	g.cache.put(cacheKey(protocol.Query, comp), sanitizeForCache(first), g.now())
	g.flights.mu.Unlock()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("service called %d times, want 1: the late leader did not look at the cache again", got)
	}
	if hits := hub.Metrics().Counter("grh_cache_hits_total", "").Value(); hits != 1 {
		t.Errorf("cache hits = %d, want 1", hits)
	}
}

// TestActionsNeverCachedOrCoalesced pins the idempotency rule: an action
// dispatch must reach its service every single time, however large the
// answer cache — mirroring the retry rule of the resilience layer.
func TestActionsNeverCachedOrCoalesced(t *testing.T) {
	hub := obs.NewHub()
	var calls atomic.Int64
	svc := ServiceFunc(func(req *protocol.Request) (*protocol.Answer, error) {
		calls.Add(1)
		return &protocol.Answer{}, nil
	})
	g := New(WithObs(hub), WithCache(CachePolicy{MaxEntries: 1024, TTL: time.Hour}))
	const lang = "http://test/action"
	if err := g.Register(Descriptor{Language: lang, FrameworkAware: true, Local: svc}); err != nil {
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
	m := hub.Metrics()
	for _, name := range []string{"grh_cache_hits_total", "grh_coalesced_total"} {
		if got := m.Counter(name, "").Value(); got != 0 {
			t.Errorf("%s = %d, want 0 for action dispatches", name, got)
		}
	}
}

// TestCacheErrorsNotCached: a failed dispatch must not populate the
// cache; the next identical dispatch tries upstream again.
func TestCacheErrorsNotCached(t *testing.T) {
	var calls atomic.Int64
	svc := ServiceFunc(func(req *protocol.Request) (*protocol.Answer, error) {
		if calls.Add(1) == 1 {
			return nil, fmt.Errorf("transient")
		}
		return &protocol.Answer{}, nil
	})
	g := newCachedGRH(t, nil, DefaultCachePolicy, svc)
	rel := bindings.Unit()
	if _, err := g.Dispatch(protocol.Query, queryComp("r", cacheTestLang, rel)); err == nil {
		t.Fatal("first dispatch should fail")
	}
	if _, err := g.Dispatch(protocol.Query, queryComp("r", cacheTestLang, rel)); err != nil {
		t.Fatalf("second dispatch: %v", err)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("service called %d times, want 2 (errors are never cached)", got)
	}
}

// derivingEcho echoes every input tuple with a result derived from its
// bindings, so an answer served to the wrong request, or cut short, shows
// as wrong rows. It counts the requests for component query[1], and the
// first of them waits for gate when gate is not nil.
func derivingEcho(calls *atomic.Int64, entered chan<- struct{}, gate <-chan struct{}) Service {
	return ServiceFunc(func(req *protocol.Request) (*protocol.Answer, error) {
		if req.Component == "query[1]" && calls.Add(1) == 1 && gate != nil {
			close(entered)
			<-gate
		}
		a := &protocol.Answer{RuleID: req.RuleID, Component: req.Component}
		for _, t := range req.Bindings.Tuples() {
			a.Rows = append(a.Rows, protocol.AnswerRow{
				Tuple:   t,
				Results: []bindings.Value{bindings.Str("res:" + t["V"].AsString())},
			})
		}
		return a, nil
	})
}

func echoRelation(n int) *bindings.Relation {
	r := bindings.NewRelation()
	for i := 0; i < n; i++ {
		r.Add(bindings.MustTuple(
			"K", bindings.Str(fmt.Sprintf("k%d", i%7)),
			"V", bindings.Str(fmt.Sprintf("v%d", i)),
		))
	}
	return r
}

// canonicalRows renders an answer's rows as a sorted multiset, the
// order-insensitive form cached and uncached dispatch must agree on.
func canonicalRows(a *protocol.Answer) []string {
	out := make([]string, 0, len(a.Rows))
	for _, row := range a.Rows {
		parts := []string{row.Tuple.String()}
		for _, r := range row.Results {
			parts = append(parts, r.String())
		}
		out = append(out, strings.Join(parts, "|"))
	}
	sort.Strings(out)
	return out
}

// TestCachePathEquivalence: whichever way the answer cache serves a query
// — the miss that fills it, a hit, a coalesced flight, a refill after LRU
// eviction or one after TTL expiry — the answer carries exactly the rows
// and the address of the uncached dispatch, for plain components and
// eca:variable components alike and across a spread of relation sizes.
// Each path calls upstream only as often as it must.
func TestCachePathEquivalence(t *testing.T) {
	for _, variable := range []string{"", "R"} {
		for _, path := range []string{"miss", "hit", "coalesced", "evicted", "expired"} {
			for _, n := range []int{0, 1, 2, 7, 63, 64, 65, 130} {
				t.Run(fmt.Sprintf("var=%q/path=%s/n=%d", variable, path, n), func(t *testing.T) {
					comp := Component{
						Rule: "r",
						Comp: ruleml.Component{
							Kind: ruleml.QueryComponent, ID: "query[1]",
							Language: cacheTestLang, Variable: variable,
							Expression: xmltree.NewElement(cacheTestLang, "q"),
						},
						Bindings: echoRelation(n),
					}
					other := comp
					other.Comp.ID = "query[2]"
					other.Bindings = bindings.NewRelation(bindings.MustTuple("V", bindings.Str("other")))

					var directCalls atomic.Int64
					direct := New()
					if err := direct.Register(Descriptor{Language: cacheTestLang, FrameworkAware: true, Local: derivingEcho(&directCalls, nil, nil)}); err != nil {
						t.Fatal(err)
					}
					want, err := direct.Dispatch(protocol.Query, comp)
					if err != nil {
						t.Fatal(err)
					}
					per := directCalls.Load() // upstream calls of one uncached dispatch

					var calls atomic.Int64
					entered, gate := make(chan struct{}), make(chan struct{})
					g := New(WithCache(CachePolicy{MaxEntries: 1, TTL: time.Second}))
					clock := time.Unix(1000, 0)
					g.now = func() time.Time { return clock }
					if err := g.Register(Descriptor{Language: cacheTestLang, FrameworkAware: true, Local: derivingEcho(&calls, entered, gate)}); err != nil {
						t.Fatal(err)
					}
					if path != "coalesced" {
						close(gate)
					}
					dispatch := func(c Component) *protocol.Answer {
						t.Helper()
						a, err := g.Dispatch(protocol.Query, c)
						if err != nil {
							t.Fatal(err)
						}
						return a
					}
					check := func(got *protocol.Answer) {
						t.Helper()
						if got.RuleID != want.RuleID || got.Component != want.Component {
							t.Errorf("answer addressed to %s/%s, uncached to %s/%s", got.RuleID, got.Component, want.RuleID, want.Component)
						}
						wr, gr := canonicalRows(want), canonicalRows(got)
						if len(wr) != len(gr) {
							t.Fatalf("%d rows, uncached %d", len(gr), len(wr))
						}
						for i := range wr {
							if wr[i] != gr[i] {
								t.Fatalf("row %d differs:\ncached:   %s\nuncached: %s", i, gr[i], wr[i])
							}
						}
					}

					wantCalls := per
					switch path {
					case "miss":
						check(dispatch(comp))
					case "hit":
						dispatch(comp)
						check(dispatch(comp))
					case "coalesced":
						const callers = 4
						answers := make([]*protocol.Answer, callers)
						var wg sync.WaitGroup
						for i := range answers {
							wg.Add(1)
							go func(i int) {
								defer wg.Done()
								a, err := g.Dispatch(protocol.Query, comp)
								if err != nil {
									t.Error(err)
								}
								answers[i] = a
							}(i)
						}
						if per > 0 {
							<-entered // the leader is upstream; the rest join it or hit the cache
						}
						close(gate)
						wg.Wait()
						for _, a := range answers {
							if a != nil {
								check(a)
							}
						}
					case "evicted":
						dispatch(comp)
						dispatch(other) // the one-entry cache drops comp's answer
						check(dispatch(comp))
						wantCalls = 2 * per
					case "expired":
						dispatch(comp)
						clock = clock.Add(2 * time.Second)
						check(dispatch(comp))
						wantCalls = 2 * per
					}
					if got := calls.Load(); got != wantCalls {
						t.Errorf("service called %d times, want %d", got, wantCalls)
					}
				})
			}
		}
	}
}
