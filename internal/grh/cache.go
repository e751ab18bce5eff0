// Answer cache and request coalescing for the GRH dispatch path. Under
// the paper's set-of-tuples semantics (Section 4, Figs. 8/11) a query or
// test evaluation is a pure function of (expression, input bindings), so
// identical dispatches may share one answer: a size- and TTL-bounded LRU
// cache short-circuits repeats, and a singleflight group collapses N
// concurrent identical dispatches into one upstream request. Only the
// idempotent request kinds participate (queries and tests — never
// actions, mirroring the retry idempotency rule of the resilience
// layer). Cached answers are defensively deep-copied on every hit, so a
// relation handed to one rule instance is never aliased into another.

package grh

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/bindings"
	"repro/internal/obs"
	"repro/internal/protocol"
)

// DefaultCacheTTL bounds how long a cached answer may be served when the
// policy does not set its own TTL.
const DefaultCacheTTL = 30 * time.Second

// CachePolicy configures the GRH answer cache. The zero value disables
// caching (and with it request coalescing).
type CachePolicy struct {
	// MaxEntries bounds the cache size; the least recently used entry is
	// evicted beyond it. Values ≤ 0 disable the cache.
	MaxEntries int
	// TTL bounds how long an answer may be served after it was produced
	// — the staleness window for queries over data that actions may have
	// changed since. DefaultCacheTTL when 0.
	TTL time.Duration
}

// DefaultCachePolicy is a sane starting point: 4096 entries, 30s TTL.
var DefaultCachePolicy = CachePolicy{MaxEntries: 4096, TTL: DefaultCacheTTL}

// Enabled reports whether the policy caches at all.
func (p CachePolicy) Enabled() bool { return p.MaxEntries > 0 }

func (p CachePolicy) ttl() time.Duration {
	if p.TTL <= 0 {
		return DefaultCacheTTL
	}
	return p.TTL
}

// WithCache enables the answer cache (and singleflight coalescing) for
// idempotent dispatches. A policy with MaxEntries ≤ 0 keeps both
// disabled.
func WithCache(p CachePolicy) Option {
	return func(g *GRH) {
		if p.Enabled() {
			g.cache = newAnswerCache(p)
			g.flights = &flightGroup{m: map[string]*flight{}}
		} else {
			g.cache = nil
			g.flights = nil
		}
	}
}

// --- cache key ---------------------------------------------------------------

// cacheKey digests everything that determines a query/test answer under
// the set-of-tuples semantics: the tenant, the request kind, the
// component language and kind, the serialized component expression (or
// the opaque text and its pinned service), and the canonicalized input
// relation. The rule id is deliberately absent — identical components of
// different rules share answers; the requester's rule/component ids are
// stamped back onto every copy served. The tenant is deliberately
// present: tenants may back the same expression with different data, so
// an answer computed for one tenant must never be served to another.
func cacheKey(kind protocol.RequestKind, c Component) string {
	h := sha256.New()
	sep := []byte{0xff}
	h.Write([]byte(c.Tenant))
	h.Write(sep)
	h.Write([]byte(kind))
	h.Write(sep)
	h.Write([]byte(c.Comp.Language))
	h.Write(sep)
	h.Write([]byte(c.Comp.Kind))
	h.Write(sep)
	if c.Comp.Opaque {
		h.Write([]byte("opaque\x00" + c.Comp.Text + "\x00" + c.Comp.Service))
	} else if c.Comp.Expression != nil {
		h.Write([]byte(c.Comp.Expression.String()))
	}
	h.Write(sep)
	h.Write([]byte(canonicalRelation(c.Bindings)))
	return hex.EncodeToString(h.Sum(nil))
}

// canonicalRelation renders a relation order-insensitively: the sorted
// canonical forms of its tuples. Relations already eliminate duplicates,
// so equal relations always canonicalize identically.
func canonicalRelation(r *bindings.Relation) string {
	if r == nil {
		return ""
	}
	keys := make([]string, 0, r.Size())
	for _, t := range r.Tuples() {
		keys = append(keys, canonicalTuple(t))
	}
	sort.Strings(keys)
	return strings.Join(keys, "\x02")
}

func canonicalTuple(t bindings.Tuple) string {
	vars := t.Vars()
	parts := make([]string, len(vars))
	for i, v := range vars {
		parts[i] = v + "\x00" + canonicalValue(t[v])
	}
	return strings.Join(parts, "\x01")
}

// canonicalValue is stricter than Value.Key: values of different kinds —
// or XML fragments differing anywhere in structure, not just in text
// content — never share a canonical form, so the cache can never serve
// an answer produced for a merely join-equal input. The cost is at worst
// a spurious miss.
func canonicalValue(v bindings.Value) string {
	if v.Kind() == bindings.XML {
		return "xml\x00" + v.Node().String()
	}
	return v.Kind().String() + "\x00" + v.AsString()
}

// --- LRU + TTL store ---------------------------------------------------------

// answerCache is the size- and TTL-bounded LRU store. It holds private
// deep copies; callers clone on the way out, so nothing the cache owns
// ever escapes.
type answerCache struct {
	policy CachePolicy

	mu        sync.Mutex
	lru       *list.List // front = most recently used; values are *cacheEntry
	entries   map[string]*list.Element
	evictions int64 // guarded by mu; mirrored into the metric by the GRH
}

type cacheEntry struct {
	key     string
	answer  *protocol.Answer
	expires time.Time
}

func newAnswerCache(p CachePolicy) *answerCache {
	return &answerCache{policy: p, lru: list.New(), entries: map[string]*list.Element{}}
}

// get returns the stored answer for key, refreshing its recency, plus
// the number of evictions the lookup caused (a TTL-expired entry is
// removed and counts as one). The returned answer is the cache's private
// copy — callers must clone before use.
func (c *answerCache) get(key string, now time.Time) (*protocol.Answer, bool, int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil, false, 0
	}
	e := el.Value.(*cacheEntry)
	if now.After(e.expires) {
		c.removeLocked(el)
		c.evictions++
		return nil, false, 1
	}
	c.lru.MoveToFront(el)
	return e.answer, true, 0
}

// put stores a (deep-copied) answer, evicting least recently used
// entries beyond the size bound. It returns the number of evictions the
// call caused.
func (c *answerCache) put(key string, a *protocol.Answer, now time.Time) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		el.Value.(*cacheEntry).answer = a
		el.Value.(*cacheEntry).expires = now.Add(c.policy.ttl())
		c.lru.MoveToFront(el)
		return 0
	}
	c.entries[key] = c.lru.PushFront(&cacheEntry{key: key, answer: a, expires: now.Add(c.policy.ttl())})
	evicted := 0
	for c.lru.Len() > c.policy.MaxEntries {
		c.removeLocked(c.lru.Back())
		c.evictions++
		evicted++
	}
	return evicted
}

func (c *answerCache) removeLocked(el *list.Element) {
	delete(c.entries, el.Value.(*cacheEntry).key)
	c.lru.Remove(el)
}

// len returns the number of live entries.
func (c *answerCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// --- singleflight ------------------------------------------------------------

// flight is one in-progress dispatch other identical dispatches wait on.
// The leader writes answer/err before closing done; the channel close
// publishes them to every waiter.
type flight struct {
	done   chan struct{}
	answer *protocol.Answer // sanitized deep copy, cloned per waiter
	err    error
}

// flightGroup coalesces concurrent identical dispatches onto one flight.
type flightGroup struct {
	mu sync.Mutex
	m  map[string]*flight
}

// join returns the flight for key and whether the caller is its leader
// (first arrival, responsible for executing and completing it).
func (fg *flightGroup) join(key string) (*flight, bool) {
	fg.mu.Lock()
	defer fg.mu.Unlock()
	if f, ok := fg.m[key]; ok {
		return f, false
	}
	f := &flight{done: make(chan struct{})}
	fg.m[key] = f
	return f, true
}

// complete publishes the leader's outcome and releases every waiter.
func (fg *flightGroup) complete(key string, f *flight, a *protocol.Answer, err error) {
	f.answer, f.err = a, err
	fg.mu.Lock()
	delete(fg.m, key)
	fg.mu.Unlock()
	close(f.done)
}

// --- dispatch integration ----------------------------------------------------

// answerFor serves one caller from a cache- or flight-owned answer: a
// deep copy (no aliasing of tuples, values or XML fragments across rule
// instances) re-addressed to the requesting rule and component.
func answerFor(stored *protocol.Answer, c Component) *protocol.Answer {
	a := stored.Clone()
	a.RuleID = c.Rule
	a.Component = c.Comp.ID
	return a
}

// sanitizeForCache deep-copies an answer for storage, stripping the
// server-side trace: replaying another instance's spans into a later
// trace would corrupt it, and a cache hit has no server side.
func sanitizeForCache(a *protocol.Answer) *protocol.Answer {
	s := a.Clone()
	s.Trace, s.TraceID, s.TraceParent = nil, "", ""
	return s
}

// dispatchCoalesced is the throughput front door for idempotent kinds
// when the cache is enabled: answer cache lookup, then singleflight
// coalescing around the upstream dispatch.
func (g *GRH) dispatchCoalesced(kind protocol.RequestKind, c Component) (*protocol.Answer, error) {
	key := cacheKey(kind, c)
	start := time.Now()
	if stored, ok := g.cacheGet(key); ok {
		return g.serveHit(kind, c, stored, start), nil
	}
	f, leader := g.flights.join(key)
	if !leader {
		<-f.done
		g.met.requests.With(string(kind)).Inc()
		g.met.coalesced.Inc()
		g.met.dispatch.With(langLabel(c.Comp.Language), "coalesced").Observe(time.Since(start).Seconds())
		if f.err != nil {
			return nil, f.err
		}
		g.addCacheSpan(c, "coalesced", len(f.answer.Rows), start)
		return answerFor(f.answer, c), nil
	}
	// A caller can miss the cache just before an earlier leader fills it
	// and join just after that leader completes its flight. Leading now,
	// it looks again before it would repeat the upstream call.
	if stored, ok := g.cacheGet(key); ok {
		g.flights.complete(key, f, stored, nil)
		return g.serveHit(kind, c, stored, start), nil
	}
	g.met.cacheMisses.Inc()
	a, err := g.dispatchDirect(kind, c)
	var stored *protocol.Answer
	if err == nil {
		stored = sanitizeForCache(a)
		evicted := g.cache.put(key, stored, g.now())
		g.met.cacheEvictions.Add(int64(evicted))
		g.addCacheSpan(c, "miss", len(a.Rows), start)
	}
	g.flights.complete(key, f, stored, err)
	return a, err
}

// cacheGet looks key up in the answer cache, metering the TTL evictions
// the lookup causes.
func (g *GRH) cacheGet(key string) (*protocol.Answer, bool) {
	stored, ok, expired := g.cache.get(key, g.now())
	g.met.cacheEvictions.Add(int64(expired))
	return stored, ok
}

// serveHit answers c from a cached answer.
func (g *GRH) serveHit(kind protocol.RequestKind, c Component, stored *protocol.Answer, start time.Time) *protocol.Answer {
	g.met.requests.With(string(kind)).Inc()
	g.met.cacheHits.Inc()
	a := answerFor(stored, c)
	g.met.dispatch.With(langLabel(c.Comp.Language), "cache").Observe(time.Since(start).Seconds())
	g.addCacheSpan(c, "hit", len(a.Rows), start)
	return a
}

// addCacheSpan records the cache layer's verdict on a traced dispatch.
func (g *GRH) addCacheSpan(c Component, mode string, rows int, start time.Time) {
	if c.Trace == nil {
		return
	}
	in := 0
	if c.Bindings != nil {
		in = c.Bindings.Size()
	}
	c.Trace.AddSpan(obs.Span{
		Stage:     "cache",
		Component: c.Comp.ID,
		Language:  c.Comp.Language,
		Mode:      mode,
		TuplesIn:  in,
		TuplesOut: rows,
		Start:     start,
		Duration:  time.Since(start),
	})
}
