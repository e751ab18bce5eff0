package compilecache

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
)

// slot is the charge of one short test source ("e0", "expr", "a"): a cache
// of n*slot bytes holds n of them.
var slot = cost("e0")

func TestGetCompilesOnceAndCachesValue(t *testing.T) {
	c := New(8 * slot)
	var calls atomic.Int64
	compile := func(src string) (any, error) {
		calls.Add(1)
		return "compiled:" + src, nil
	}
	for i := 0; i < 5; i++ {
		v, err := c.Get("l", "expr", compile)
		if err != nil {
			t.Fatal(err)
		}
		if v != "compiled:expr" {
			t.Fatalf("got %v", v)
		}
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("compile ran %d times, want 1", n)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
}

func TestNegativeCaching(t *testing.T) {
	c := New(8 * slot)
	var calls atomic.Int64
	bad := errors.New("syntax error")
	compile := func(string) (any, error) {
		calls.Add(1)
		return nil, bad
	}
	for i := 0; i < 3; i++ {
		if _, err := c.Get("l", "broken", compile); !errors.Is(err, bad) {
			t.Fatalf("err = %v, want %v", err, bad)
		}
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("compile ran %d times, want 1 (errors must be cached)", n)
	}
}

func TestLanguageSegregatesKeys(t *testing.T) {
	c := New(8 * slot)
	mk := func(lang string) func(string) (any, error) {
		return func(src string) (any, error) { return lang + ":" + src, nil }
	}
	a, _ := c.Get("xpath", "x", mk("xpath"))
	b, _ := c.Get("xq", "x", mk("xq"))
	if a == b {
		t.Fatalf("same source in different languages must not share entries")
	}
}

func TestEvictionUnderSizeBound(t *testing.T) {
	c := New(3 * slot)
	hub := obs.NewHub()
	c.SetObs(hub)
	compile := func(src string) (any, error) { return src, nil }
	for i := 0; i < 10; i++ {
		if _, err := c.Get("l", fmt.Sprintf("e%d", i), compile); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() != 3 {
		t.Fatalf("Len = %d, want 3 (size bound)", c.Len())
	}
	if ev := hub.Metrics().Counter("compile_cache_evictions_total", "").Value(); ev != 7 {
		t.Fatalf("evictions = %d, want 7", ev)
	}
	// LRU: the most recent entries survive.
	var recompiled atomic.Int64
	counting := func(src string) (any, error) { recompiled.Add(1); return src, nil }
	for i := 7; i < 10; i++ {
		c.Get("l", fmt.Sprintf("e%d", i), counting)
	}
	if n := recompiled.Load(); n != 0 {
		t.Fatalf("recent entries recompiled %d times, want 0", n)
	}
	c.Get("l", "e0", counting) // evicted long ago
	if n := recompiled.Load(); n != 1 {
		t.Fatalf("evicted entry recompiled %d times, want 1", n)
	}
}

func TestLRUTouchOnHit(t *testing.T) {
	c := New(2 * slot)
	compile := func(src string) (any, error) { return src, nil }
	c.Get("l", "a", compile)
	c.Get("l", "b", compile)
	c.Get("l", "a", compile) // touch a → b is now LRU
	c.Get("l", "c", compile) // evicts b
	var calls atomic.Int64
	counting := func(src string) (any, error) { calls.Add(1); return src, nil }
	c.Get("l", "a", counting)
	if calls.Load() != 0 {
		t.Fatal("touched entry was evicted")
	}
	c.Get("l", "b", counting)
	if calls.Load() != 1 {
		t.Fatal("LRU entry was not evicted")
	}
}

// TestByteBudget: whatever mix of source lengths passes through, the
// entries kept never charge more than the budget, and their source bytes
// alone never exceed it; a source larger than the whole budget is compiled
// on every Get, returned, and neither kept nor allowed to evict the others.
func TestByteBudget(t *testing.T) {
	const budget = 4096
	c := New(budget)
	compile := func(src string) (any, error) { return len(src), nil }
	resident := func() (charged, source int) {
		for el := c.lru.Front(); el != nil; el = el.Next() {
			charged += c.entries[el.Value.(key)].size
		}
		return charged, charged - c.lru.Len()*entryOverhead
	}
	for i := 0; i < 500; i++ {
		src := strings.Repeat("x", (i*7919)%1500) + fmt.Sprint(i%40)
		if v, err := c.Get("l", src, compile); err != nil || v != len(src) {
			t.Fatalf("Get(%d bytes) = %v, %v", len(src), v, err)
		}
		charged, source := resident()
		if charged != c.used || charged > budget || source > budget {
			t.Fatalf("after %d Gets: charged %d (used %d), source bytes %d, budget %d", i+1, charged, c.used, source, budget)
		}
	}

	c.Purge()
	c.Get("l", "small", compile)
	var calls atomic.Int64
	huge := strings.Repeat("y", budget)
	for i := 0; i < 2; i++ {
		v, err := c.Get("l", huge, func(src string) (any, error) { calls.Add(1); return len(src), nil })
		if err != nil || v != budget {
			t.Fatalf("oversize Get = %v, %v", v, err)
		}
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("oversize source compiled %d times, want 2 (never kept)", n)
	}
	if c.Len() != 1 || c.used != cost("small") {
		t.Fatalf("after oversize Gets: Len = %d, used = %d; want only the small entry", c.Len(), c.used)
	}
}

func TestCapacityZeroBypasses(t *testing.T) {
	c := New(0)
	var calls atomic.Int64
	compile := func(src string) (any, error) { calls.Add(1); return src, nil }
	for i := 0; i < 4; i++ {
		if _, err := c.Get("l", "x", compile); err != nil {
			t.Fatal(err)
		}
	}
	if n := calls.Load(); n != 4 {
		t.Fatalf("disabled cache compiled %d times, want 4", n)
	}
	if c.Len() != 0 {
		t.Fatalf("disabled cache retained %d entries", c.Len())
	}
}

func TestSetCapacityShrinksAndDisables(t *testing.T) {
	c := New(10 * slot)
	compile := func(src string) (any, error) { return src, nil }
	for i := 0; i < 10; i++ {
		c.Get("l", fmt.Sprintf("e%d", i), compile)
	}
	c.SetCapacity(4 * slot)
	if c.Len() != 4 {
		t.Fatalf("Len after shrink = %d, want 4", c.Len())
	}
	c.SetCapacity(0)
	if c.Len() != 0 {
		t.Fatalf("Len after disable = %d, want 0", c.Len())
	}
}

// TestConcurrentWarmAndMiss hammers one cache from many goroutines over a
// small keyspace with an eviction-prone bound; run with -race -count=2.
func TestConcurrentWarmAndMiss(t *testing.T) {
	c := New(4 * slot)
	hub := obs.NewHub()
	c.SetObs(hub)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				src := fmt.Sprintf("e%d", (g+i)%6) // 6 keys, 4 slots → churn
				v, err := c.Get("l", src, func(s string) (any, error) { return "v:" + s, nil })
				if err != nil {
					t.Error(err)
					return
				}
				if v != "v:"+src {
					t.Errorf("got %v for %s", v, src)
					return
				}
				if i%100 == 0 {
					c.SetCapacity((3 + i%3) * slot) // resize under load
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > 5 {
		t.Fatalf("Len = %d exceeds every capacity used", c.Len())
	}
}

// TestSingleflight: concurrent misses for one key share a single compile.
func TestSingleflight(t *testing.T) {
	c := New(8 * slot)
	var calls atomic.Int64
	gate := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-gate
			v, err := c.Get("l", "shared", func(s string) (any, error) {
				calls.Add(1)
				return "ok", nil
			})
			if err != nil || v != "ok" {
				t.Errorf("got %v, %v", v, err)
			}
		}()
	}
	close(gate)
	wg.Wait()
	// The first Get to install the in-flight entry compiles; every racer
	// that arrived after it waits on done instead of compiling again.
	if n := calls.Load(); n != 1 {
		t.Fatalf("compile ran %d times, want 1", n)
	}
}

func TestPurge(t *testing.T) {
	c := New(8 * slot)
	c.Get("l", "x", func(s string) (any, error) { return s, nil })
	c.Purge()
	if c.Len() != 0 {
		t.Fatalf("Len after Purge = %d", c.Len())
	}
	var calls atomic.Int64
	c.Get("l", "x", func(s string) (any, error) { calls.Add(1); return s, nil })
	if calls.Load() != 1 {
		t.Fatal("purged entry still served")
	}
}

func TestMetricsCounters(t *testing.T) {
	c := New(8 * slot)
	hub := obs.NewHub()
	c.SetObs(hub)
	compile := func(src string) (any, error) { return src, nil }
	c.Get("xpath", "a", compile)
	c.Get("xpath", "a", compile)
	c.Get("xpath", "a", compile)
	m := hub.Metrics()
	if h := m.Counter("compile_cache_hits_total", "").Value(); h != 2 {
		t.Fatalf("hits = %d, want 2", h)
	}
	if mi := m.Counter("compile_cache_misses_total", "").Value(); mi != 1 {
		t.Fatalf("misses = %d, want 1", mi)
	}
	if n := m.HistogramVec("compile_seconds", "", nil, "language").With("xpath").Count(); n != 1 {
		t.Fatalf("compile_seconds{xpath} count = %d, want 1", n)
	}
}
