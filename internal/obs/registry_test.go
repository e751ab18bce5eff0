package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterConcurrentIncrements(t *testing.T) {
	r := NewRegistry()
	vec := r.CounterVec("requests_total", "test counter", "kind")
	const workers, perWorker = 16, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Resolve through the vec on every iteration too: the lookup
			// path must also be contention-safe.
			for i := 0; i < perWorker; i++ {
				vec.With("query").Inc()
				vec.With("action").Add(2)
			}
		}()
	}
	wg.Wait()
	if got := vec.With("query").Value(); got != workers*perWorker {
		t.Errorf("query counter = %d, want %d", got, workers*perWorker)
	}
	if got := vec.With("action").Value(); got != 2*workers*perWorker {
		t.Errorf("action counter = %d, want %d", got, 2*workers*perWorker)
	}
}

func TestCounterIgnoresNegative(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ops_total", "t")
	c.Add(5)
	c.Add(-3)
	if c.Value() != 5 {
		t.Errorf("counter = %d after negative add, want 5", c.Value())
	}
}

func TestGaugeSetAddConcurrent(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("temperature", "t")
	g.Set(10)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				g.Add(1)
				g.Add(-1)
			}
		}()
	}
	wg.Wait()
	if g.Value() != 10 {
		t.Errorf("gauge = %v, want 10", g.Value())
	}
}

// TestGaugeVecConcurrentSet models the breaker-state gauge: many
// goroutines racing Set on per-endpoint children, resolving through the
// vec each time. Every child must end on one of the written states.
func TestGaugeVecConcurrentSet(t *testing.T) {
	r := NewRegistry()
	vec := r.GaugeVec("breaker_state", "t", "endpoint")
	endpoints := []string{"http://a/", "http://b/", "http://c/"}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				vec.With(endpoints[i%len(endpoints)]).Set(float64((w + i) % 3))
			}
		}(w)
	}
	wg.Wait()
	for _, ep := range endpoints {
		if got := vec.With(ep).Value(); got != 0 && got != 1 && got != 2 {
			t.Errorf("gauge{%s} = %v, want a written state (0, 1 or 2)", ep, got)
		}
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "t", []float64{0.1, 1, 10})
	// le semantics: a value equal to a bound lands in that bound's bucket.
	for _, v := range []float64{0.05, 0.1, 0.5, 1.0, 5, 10, 100} {
		h.Observe(v)
	}
	got := h.BucketCounts()
	want := []int64{2, 2, 2, 1} // ≤0.1: {0.05, 0.1}; ≤1: {0.5, 1}; ≤10: {5, 10}; +Inf: {100}
	if len(got) != len(want) {
		t.Fatalf("bucket count = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("bucket[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	if h.Count() != 7 {
		t.Errorf("count = %d, want 7", h.Count())
	}
	if sum := h.Sum(); sum < 116.64 || sum > 116.66 {
		t.Errorf("sum = %v, want 116.65", sum)
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	h := r.HistogramVec("lat", "t", []float64{1, 2}, "op").With("x")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(1.5)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Errorf("count = %d, want 8000", h.Count())
	}
	if sum := h.Sum(); sum != 12000 {
		t.Errorf("sum = %v, want 12000", sum)
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("grh_requests_total", "GRH requests.", "kind").With("query").Add(3)
	r.Gauge("engine_rules", "Registered rules.").Set(2)
	h := r.Histogram("dispatch_seconds", "Dispatch latency.", []float64{0.5, 1})
	h.Observe(0.25)
	h.Observe(0.75)
	h.Observe(3)

	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		"# HELP grh_requests_total GRH requests.",
		"# TYPE grh_requests_total counter",
		`grh_requests_total{kind="query"} 3`,
		"# TYPE engine_rules gauge",
		"engine_rules 2",
		"# TYPE dispatch_seconds histogram",
		`dispatch_seconds_bucket{le="0.5"} 1`,
		`dispatch_seconds_bucket{le="1"} 2`,
		`dispatch_seconds_bucket{le="+Inf"} 3`,
		"dispatch_seconds_sum 4",
		"dispatch_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestLabelEscapingAndArity(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("c", "help with\nnewline", "a", "b")
	v.With(`x"y\z`).Inc() // one value short: missing label renders empty
	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	if !strings.Contains(out, `c{a="x\"y\\z",b=""} 1`) {
		t.Errorf("bad label escaping:\n%s", out)
	}
	if !strings.Contains(out, `help with\nnewline`) {
		t.Errorf("bad help escaping:\n%s", out)
	}
}

func TestSameNameReturnsSameFamily(t *testing.T) {
	r := NewRegistry()
	a := r.CounterVec("shared_total", "h", "k").With("v")
	b := r.CounterVec("shared_total", "other help", "k").With("v")
	a.Inc()
	if b.Value() != 1 {
		t.Error("same-name vecs should share children")
	}
}

func TestNilSafety(t *testing.T) {
	var h *Hub
	reg := h.Metrics()
	if reg != nil {
		t.Fatal("nil hub should yield nil registry")
	}
	c := reg.CounterVec("x", "h", "l").With("v")
	c.Inc()
	c.Add(5)
	_ = c.Value()
	g := reg.Gauge("g", "h")
	g.Set(1)
	g.Add(1)
	hist := reg.HistogramVec("h", "h", nil, "l").With("v")
	hist.Observe(1)
	_ = hist.Count()
	var sb strings.Builder
	reg.WritePrometheus(&sb)
	if sb.Len() != 0 {
		t.Error("nil registry should write nothing")
	}
	tr := h.Traces()
	inst := tr.Begin("r", 0)
	inst.AddSpan(Span{Stage: "event"})
	inst.Finish("completed")
	if tr.Snapshot() != nil || tr.Recorded() != 0 {
		t.Error("nil recorder should record nothing")
	}
}

// Looking up an existing child allocates nothing, for every metric type
// and with one or two labels.
func TestWithHitAllocatesNothing(t *testing.T) {
	r := NewRegistry()
	c1 := r.CounterVec("c1_total", "h", "kind")
	c2 := r.CounterVec("c2_total", "h", "tenant", "reason")
	g2 := r.GaugeVec("g2", "h", "a", "b")
	h1 := r.HistogramVec("h1_seconds", "h", nil, "kind")
	c1.With("event").Inc()
	c2.With("acme", "quota").Inc()
	g2.With("x", "y").Set(1)
	h1.With("query").Observe(1)
	tenant, reason := "acme", "quota" // not constants: the key is built per call
	for name, f := range map[string]func(){
		"counter 1 label":   func() { c1.With("event").Inc() },
		"counter 2 labels":  func() { c2.With(tenant, reason).Inc() },
		"gauge 2 labels":    func() { g2.With("x", "y").Add(1) },
		"histogram 1 label": func() { h1.With("query").Observe(0.5) },
	} {
		if n := testing.AllocsPerRun(100, f); n != 0 {
			t.Errorf("%s: With on an existing child allocated %v times", name, n)
		}
	}
	if got := c2.With("acme", "quota").Value(); got != 101+1 {
		t.Errorf("counter = %d, want 102", got)
	}
}
