// Package compilecache memoizes compiled component-language expressions.
//
// The paper's GRH mediates every rule firing through component-language
// services, so the same expression text — a rule's XPath test, XQuery-lite
// query or Datalog goal — is evaluated once per event, potentially millions
// of times over the rule's lifetime. Compiling is pure (source text in,
// immutable compiled form out), so each language package exposes a
// CompileCached entry point backed by one shared Cache here: sha256-keyed,
// bounded by the source bytes it holds with LRU eviction, concurrency-safe,
// with singleflight behaviour on misses so a burst of identical cold
// dispatches compiles once. The bound is in bytes, not entries, because a
// compiled form grows with its source (an XPath AST is up to about 45× its
// text): a count of entries would let a few multi-megabyte rules pin
// gigabytes.
//
// Compile *errors* are cached too (negative caching): a rule whose
// expression does not compile would otherwise re-run the parser on every
// event it matches. Registration-time precompilation (internal/services
// PrecompileRule) rejects such rules up front, so negative entries mainly
// guard the opaque per-tuple paths where variable substitution can yield
// fresh, possibly invalid, source text.
package compilecache

import (
	"container/list"
	"crypto/sha256"
	"sync"
	"time"

	"repro/internal/obs"
)

// DefaultCapacity is the byte budget of the Default cache. It holds 4096
// entries of 325 source bytes, the largest expression the figure replays
// and the benchmark workloads compile, with room to spare.
const DefaultCapacity = 2 << 20

// entryOverhead is charged to every resident entry on top of its source
// length, for its key, list element and compiled form, so that a stream of
// distinct tiny sources cannot hold an unbounded number of entries.
const entryOverhead = 128

// cost is what one entry for src is charged against the byte budget.
func cost(src string) int { return len(src) + entryOverhead }

// Default is the process-wide cache shared by the language packages'
// CompileCached entry points.
var Default = New(DefaultCapacity)

// key identifies one (language, source) pair by digest. Hashing keeps the
// cache from retaining arbitrarily large source strings and makes every
// key the same small, comparable size.
type key [sha256.Size]byte

func keyOf(lang, src string) key {
	h := sha256.New()
	h.Write([]byte(lang))
	h.Write([]byte{0})
	h.Write([]byte(src))
	var k key
	h.Sum(k[:0])
	return k
}

// entry is one cache slot. done is closed when the compile finished; a
// concurrent Get for the same key waits on it instead of compiling again.
type entry struct {
	done chan struct{}
	val  any
	err  error
	elem *list.Element // position in the LRU list; nil while compiling
	size int           // charged against the budget once on the list
}

// Cache is a byte-bounded, concurrency-safe memo of compiled expressions.
// The zero value is not usable; call New.
type Cache struct {
	mu      sync.Mutex
	cap     int // byte budget
	used    int // bytes charged by the entries on the LRU list
	entries map[key]*entry
	lru     *list.List // front = most recently used; values are keys

	hits, misses, evictions *obs.Counter
	compileSec              *obs.HistogramVec // compile_seconds{language}
}

// New returns a cache whose resident entries are charged at most capacity
// bytes (see cost). A capacity of 0 (or negative) disables caching: Get
// then always compiles, still counting misses and compile latency.
func New(capacity int) *Cache {
	return &Cache{cap: capacity, entries: map[key]*entry{}, lru: list.New()}
}

// SetCapacity re-bounds the cache to n bytes, evicting LRU entries if it
// shrank. A capacity ≤ 0 disables caching and drops every entry.
func (c *Cache) SetCapacity(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cap = n
	if n <= 0 {
		c.purgeLocked()
		return
	}
	for c.used > c.cap {
		c.evictOldestLocked()
	}
}

// SetObs points the cache's instruments at a hub's registry:
// compile_cache_{hits,misses,evictions}_total and compile_seconds{language}.
// A nil hub detaches them (nil-safe no-ops).
func (c *Cache) SetObs(h *obs.Hub) {
	m := h.Metrics()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.hits = m.Counter("compile_cache_hits_total", "Compiled-expression cache hits across component languages.")
	c.misses = m.Counter("compile_cache_misses_total", "Compiled-expression cache misses (fresh compilations).")
	c.evictions = m.Counter("compile_cache_evictions_total", "Compiled-expression cache entries evicted by the size bound.")
	c.compileSec = m.HistogramVec("compile_seconds", "Expression compilation latency by component language.", nil, "language")
}

// Len returns the number of resident entries (in-flight compiles included).
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Purge drops every entry. Tests use it to compare cold and warm paths.
func (c *Cache) Purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.purgeLocked()
}

func (c *Cache) purgeLocked() {
	c.entries = map[key]*entry{}
	c.lru.Init()
	c.used = 0
}

// Get returns the compiled form of src in the given language, compiling at
// most once per (language, source) while the entry stays resident.
// Concurrent Gets for the same missing key share one compile. A source
// whose cost exceeds the whole budget is compiled on every Get and never
// kept. The compiled value must be immutable / safe for concurrent use, as
// every caller receives the same instance.
func (c *Cache) Get(lang, src string, compile func(src string) (any, error)) (any, error) {
	size := cost(src)
	c.mu.Lock()
	if size > c.cap {
		misses, sec := c.misses, c.compileSec
		c.mu.Unlock()
		misses.Inc()
		return timedCompile(lang, src, compile, sec)
	}
	k := keyOf(lang, src)
	if e, ok := c.entries[k]; ok {
		if e.elem != nil {
			c.lru.MoveToFront(e.elem)
		}
		hits := c.hits
		c.mu.Unlock()
		hits.Inc()
		<-e.done
		return e.val, e.err
	}
	e := &entry{done: make(chan struct{})}
	c.entries[k] = e
	misses, sec := c.misses, c.compileSec
	c.mu.Unlock()

	misses.Inc()
	e.val, e.err = timedCompile(lang, src, compile, sec)
	close(e.done)

	c.mu.Lock()
	// The entry may have been purged or the cache resized while compiling;
	// only link it into the LRU if it is still the resident one. Should the
	// budget have shrunk below its size, the eviction loop drops it again.
	if c.entries[k] == e {
		e.elem, e.size = c.lru.PushFront(k), size
		c.used += size
		for c.used > c.cap {
			c.evictOldestLocked()
		}
	}
	c.mu.Unlock()
	return e.val, e.err
}

// evictOldestLocked removes the least recently used resident entry.
// In-flight compiles (elem == nil) are never on the list and so never
// evicted mid-compile.
func (c *Cache) evictOldestLocked() {
	back := c.lru.Back()
	if back == nil {
		return
	}
	c.lru.Remove(back)
	k := back.Value.(key)
	c.used -= c.entries[k].size
	delete(c.entries, k)
	c.evictions.Inc()
}

func timedCompile(lang, src string, compile func(string) (any, error), sec *obs.HistogramVec) (any, error) {
	if sec == nil {
		return compile(src)
	}
	start := time.Now()
	v, err := compile(src)
	sec.With(lang).Observe(obs.Since(start))
	return v, err
}
