package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry holds metric families and renders them in Prometheus text
// exposition format. Safe for concurrent use; instrument lookups are
// intended to happen once at construction time, observations on the hot
// path touch only atomics.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

type family struct {
	name    string
	help    string
	typ     string // "counter" | "gauge" | "histogram"
	labels  []string
	buckets []float64 // histograms only

	mu       sync.RWMutex
	children map[string]any // key: label values joined by \xff
}

// appendChildKey appends the child key of the given label values to b:
// the values joined by \xff, padded or truncated to the family's label
// arity so a miscounted With never corrupts the exposition.
func (f *family) appendChildKey(b []byte, values []string) []byte {
	for i := range f.labels {
		if i > 0 {
			b = append(b, '\xff')
		}
		if i < len(values) {
			b = append(b, values[i]...)
		}
	}
	return b
}

// child returns the metric for the given label values, creating it with
// mk on first use. Finding an existing child allocates nothing: the key is
// built in a stack buffer and the map lookup does not copy it.
func (f *family) child(values []string, mk func() any) any {
	var buf [128]byte
	key := f.appendChildKey(buf[:0], values)
	f.mu.RLock()
	c, ok := f.children[string(key)]
	f.mu.RUnlock()
	if ok {
		return c
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[string(key)]; ok {
		return c
	}
	c = mk()
	if lc, ok := c.(interface{ setLabels([]string) }); ok {
		vals := make([]string, len(f.labels))
		copy(vals, values)
		lc.setLabels(vals)
	}
	f.children[string(key)] = c
	return c
}

// lookup returns (creating if needed) the family with the given name. A
// later registration under the same name returns the existing family
// regardless of help/type/labels — the first registration wins.
func (r *Registry) lookup(name, help, typ string, buckets []float64, labels []string) *family {
	r.mu.RLock()
	f, ok := r.families[name]
	r.mu.RUnlock()
	if ok {
		return f
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		return f
	}
	f = &family{name: name, help: help, typ: typ, labels: labels, buckets: buckets, children: map[string]any{}}
	r.families[name] = f
	return f
}

// --- counters -----------------------------------------------------------------------

// Counter is a monotonically increasing count. All methods are nil-safe.
type Counter struct {
	labelValues []string
	v           atomic.Int64
}

func (c *Counter) setLabels(v []string) { c.labelValues = v }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (negative deltas are ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if c == nil || n < 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// CounterVec is a family of counters distinguished by label values.
type CounterVec struct{ f *family }

// CounterVec registers (or finds) a counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	if r == nil {
		return nil
	}
	return &CounterVec{f: r.lookup(name, help, "counter", nil, labels)}
}

// Counter registers (or finds) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.CounterVec(name, help).With()
}

// With returns the counter for the given label values.
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil {
		return nil
	}
	return v.f.child(values, func() any { return &Counter{} }).(*Counter)
}

// --- gauges -------------------------------------------------------------------------

// Gauge is a float64 value that can go up and down. All methods are
// nil-safe.
type Gauge struct {
	labelValues []string
	bits        atomic.Uint64
}

func (g *Gauge) setLabels(v []string) { g.labelValues = v }

// Set replaces the value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adjusts the value by delta.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+delta)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// GaugeVec is a family of gauges distinguished by label values.
type GaugeVec struct{ f *family }

// GaugeVec registers (or finds) a gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	if r == nil {
		return nil
	}
	return &GaugeVec{f: r.lookup(name, help, "gauge", nil, labels)}
}

// Gauge registers (or finds) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.GaugeVec(name, help).With()
}

// With returns the gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	if v == nil {
		return nil
	}
	return v.f.child(values, func() any { return &Gauge{} }).(*Gauge)
}

// --- histograms ---------------------------------------------------------------------

// Histogram counts observations into fixed buckets (upper-bound
// inclusive, Prometheus `le` semantics) and tracks their sum. All methods
// are nil-safe.
type Histogram struct {
	labelValues []string
	bounds      []float64
	counts      []atomic.Int64 // len(bounds)+1; the last is the +Inf bucket
	count       atomic.Int64
	sumBits     atomic.Uint64
	exemplar    atomic.Pointer[exemplarSlot]
}

// exemplarSlot holds a histogram's most recent exemplar. It is allocated by
// the first ObserveExemplar and overwritten in place after that, so an
// observation allocates nothing.
type exemplarSlot struct {
	mu sync.Mutex
	e  Exemplar
}

// Exemplar correlates a single recent observation with the trace that
// produced it, so a latency histogram can point at a concrete
// /debug/traces entry explaining its tail. Exemplars are kept out of the
// text exposition (format 0.0.4 has no syntax for them) and surfaced via
// the accessor instead.
type Exemplar struct {
	Value   float64
	TraceID string
}

func (h *Histogram) setLabels(v []string) { h.labelValues = v }

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound ≥ v, or +Inf overflow
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// ObserveExemplar records one value and remembers traceID as the
// histogram's most recent exemplar (no exemplar is stored when traceID
// is empty).
func (h *Histogram) ObserveExemplar(v float64, traceID string) {
	if h == nil {
		return
	}
	h.Observe(v)
	if traceID == "" {
		return
	}
	slot := h.exemplar.Load()
	if slot == nil {
		h.exemplar.CompareAndSwap(nil, &exemplarSlot{})
		slot = h.exemplar.Load()
	}
	slot.mu.Lock()
	slot.e = Exemplar{Value: v, TraceID: traceID}
	slot.mu.Unlock()
}

// Exemplar returns the most recently stored exemplar, if any.
func (h *Histogram) Exemplar() (Exemplar, bool) {
	if h == nil {
		return Exemplar{}, false
	}
	if slot := h.exemplar.Load(); slot != nil {
		slot.mu.Lock()
		defer slot.mu.Unlock()
		return slot.e, true
	}
	return Exemplar{}, false
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// BucketCounts returns the per-bucket (non-cumulative) counts, the last
// entry being the +Inf overflow bucket.
func (h *Histogram) BucketCounts() []int64 {
	if h == nil {
		return nil
	}
	out := make([]int64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// HistogramVec is a family of histograms distinguished by label values.
type HistogramVec struct{ f *family }

// HistogramVec registers (or finds) a histogram family with the given
// bucket upper bounds (must be sorted ascending; nil means
// LatencyBuckets).
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if r == nil {
		return nil
	}
	if buckets == nil {
		buckets = LatencyBuckets
	}
	return &HistogramVec{f: r.lookup(name, help, "histogram", buckets, labels)}
}

// Histogram registers (or finds) an unlabeled histogram.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	return r.HistogramVec(name, help, buckets).With()
}

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	if v == nil {
		return nil
	}
	return v.f.child(values, func() any {
		return &Histogram{bounds: v.f.buckets, counts: make([]atomic.Int64, len(v.f.buckets)+1)}
	}).(*Histogram)
}

// --- exposition ---------------------------------------------------------------------

// WritePrometheus renders every family in Prometheus text exposition
// format (version 0.0.4), families and children sorted by name for a
// stable scrape.
func (r *Registry) WritePrometheus(w io.Writer) {
	if r == nil {
		return
	}
	for _, f := range r.sortedFamilies() {
		f.write(w)
	}
}

func (r *Registry) sortedFamilies() []*family {
	r.mu.RLock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.RUnlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

func (f *family) sortedChildren() []any {
	f.mu.RLock()
	keys := make([]string, 0, len(f.children))
	for k := range f.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]any, 0, len(keys))
	for _, k := range keys {
		out = append(out, f.children[k])
	}
	f.mu.RUnlock()
	return out
}

func (f *family) write(w io.Writer) {
	children := f.sortedChildren()
	if len(children) == 0 {
		return
	}
	fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ)
	for _, c := range children {
		vals := labelValuesOf(c)
		switch m := c.(type) {
		case *Counter:
			fmt.Fprintf(w, "%s%s %d\n", f.name, formatLabels(f.labels, vals), m.Value())
		case *Gauge:
			fmt.Fprintf(w, "%s%s %s\n", f.name, formatLabels(f.labels, vals), formatFloat(m.Value()))
		case *Histogram:
			lnames := append(append([]string{}, f.labels...), "le")
			cum := int64(0)
			counts := m.BucketCounts()
			for i, b := range f.buckets {
				cum += counts[i]
				fmt.Fprintf(w, "%s_bucket%s %d\n", f.name,
					formatLabels(lnames, append(append([]string{}, vals...), formatFloat(b))), cum)
			}
			cum += counts[len(counts)-1]
			fmt.Fprintf(w, "%s_bucket%s %d\n", f.name,
				formatLabels(lnames, append(append([]string{}, vals...), "+Inf")), cum)
			fmt.Fprintf(w, "%s_sum%s %s\n", f.name, formatLabels(f.labels, vals), formatFloat(m.Sum()))
			fmt.Fprintf(w, "%s_count%s %d\n", f.name, formatLabels(f.labels, vals), m.Count())
		}
	}
}

func labelValuesOf(c any) []string {
	switch m := c.(type) {
	case *Counter:
		return m.labelValues
	case *Gauge:
		return m.labelValues
	case *Histogram:
		return m.labelValues
	}
	return nil
}

func formatLabels(names, values []string) string {
	if len(names) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		v := ""
		if i < len(values) {
			v = values[i]
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(v))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}
