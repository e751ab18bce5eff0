package obs

import (
	"strconv"
	"sync"
	"time"
)

// Span is one step of a rule instance's evaluation: the event detection
// that created it, one query/test component dispatch, or one action
// execution.
type Span struct {
	// Stage is the component kind: "event", "query", "test" or "action".
	Stage string `json:"stage"`
	// Component is the component id within the rule, e.g. "query[2]".
	Component string `json:"component,omitempty"`
	// Language is the component language namespace URI ("" for
	// domain-level components handled by the registry default).
	Language string `json:"language,omitempty"`
	// Mode records how the step was evaluated: "detection" (event),
	// "grh" (dispatched through the Generic Request Handler) or "local"
	// (the engine's built-in test evaluation).
	Mode string `json:"mode,omitempty"`
	// TuplesIn / TuplesOut are the binding-relation sizes before and
	// after the step.
	TuplesIn  int `json:"tuples_in"`
	TuplesOut int `json:"tuples_out"`
	// Start / Duration time the step.
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"duration_ns"`
	// Err is the failure that aborted the instance, if any.
	Err string `json:"error,omitempty"`
	// Children are the server-side spans a framework-aware service
	// reported for this dispatch via the log:trace answer-markup
	// extension (mode "server": request parse, expression evaluation,
	// answer encoding), stitched under the GRH client span that carried
	// the X-ECA-Trace-Id header. Empty for local steps and for services
	// that do not implement the extension.
	Children []Span `json:"children,omitempty"`
}

// InstanceTrace is the recorded life cycle of one rule instance. It is a
// plain data snapshot — the live, locked object is *Instance.
type InstanceTrace struct {
	// ID is unique per recorder: "<rule>#<n>".
	ID   string `json:"id"`
	Rule string `json:"rule"`
	// State is "running", "completed" or "died".
	State    string        `json:"state"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"duration_ns"`
	Spans    []Span        `json:"spans"`
	// Tenant is the namespace the rule belongs to; empty (omitted) for
	// the default tenant, keeping single-tenant trace dumps unchanged.
	Tenant string `json:"tenant,omitempty"`
}

// Instance is a live rule-instance trace being appended to by the engine.
// All methods are nil-safe and safe for concurrent use.
type Instance struct {
	mu   sync.Mutex
	data InstanceTrace
}

// AddSpan appends one evaluation step.
func (i *Instance) AddSpan(s Span) {
	if i == nil {
		return
	}
	i.mu.Lock()
	i.data.Spans = append(i.data.Spans, s)
	i.mu.Unlock()
}

// Finish marks the instance terminal ("completed" or "died") and stamps
// its total duration.
func (i *Instance) Finish(state string) {
	if i == nil {
		return
	}
	i.mu.Lock()
	i.data.State = state
	i.data.Duration = time.Since(i.data.Start)
	i.mu.Unlock()
}

// SetTenant stamps the namespace the instance's rule belongs to. The
// engine calls it right after Begin, before the instance is visible to
// any other goroutine's filters.
func (i *Instance) SetTenant(tenant string) {
	if i == nil {
		return
	}
	i.mu.Lock()
	i.data.Tenant = tenant
	i.mu.Unlock()
}

// ID returns the instance id ("" for a nil instance).
func (i *Instance) ID() string {
	if i == nil {
		return ""
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.data.ID
}

func (i *Instance) snapshot() InstanceTrace {
	i.mu.Lock()
	defer i.mu.Unlock()
	t := i.data
	t.Spans = append([]Span(nil), i.data.Spans...)
	return t
}

// Recorder keeps the most recent rule-instance traces in a bounded ring
// buffer; when full, the oldest instance is evicted. Safe for concurrent
// use; all methods are nil-safe.
type Recorder struct {
	mu    sync.Mutex
	cap   int
	buf   []*Instance
	next  int // eviction cursor once the ring is full
	total uint64
}

// NewRecorder returns a recorder holding at most capacity instances; a
// capacity ≤ 0 records nothing.
func NewRecorder(capacity int) *Recorder {
	if capacity < 0 {
		capacity = 0
	}
	return &Recorder{cap: capacity}
}

// Begin starts recording a new rule instance, with room for the given
// number of spans, evicting the oldest when the ring is full. Returns nil
// (a valid no-op instance) when the recorder is nil or has zero capacity.
func (r *Recorder) Begin(rule string, spans int) *Instance {
	if r == nil || r.cap == 0 {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.total++
	var buf [64]byte
	id := strconv.AppendUint(append(append(buf[:0], rule...), '#'), r.total, 10)
	inst := &Instance{data: InstanceTrace{
		ID:    string(id),
		Rule:  rule,
		State: "running",
		Start: time.Now(),
		Spans: make([]Span, 0, spans),
	}}
	if len(r.buf) < r.cap {
		r.buf = append(r.buf, inst)
	} else {
		r.buf[r.next] = inst
		r.next = (r.next + 1) % r.cap
	}
	return inst
}

// Recorded returns the total number of instances ever begun (including
// evicted ones).
func (r *Recorder) Recorded() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Capacity returns the ring-buffer size.
func (r *Recorder) Capacity() int {
	if r == nil {
		return 0
	}
	return r.cap
}

// Lookup returns a deep copy of the retained trace with the given
// instance id ("<rule>#<n>"), the /debug/traces?id= fast path.
func (r *Recorder) Lookup(id string) (InstanceTrace, bool) {
	if r == nil || id == "" {
		return InstanceTrace{}, false
	}
	r.mu.Lock()
	var found *Instance
	for _, i := range r.buf {
		if i.ID() == id {
			found = i
			break
		}
	}
	r.mu.Unlock()
	if found == nil {
		return InstanceTrace{}, false
	}
	return found.snapshot(), true
}

// Snapshot returns deep copies of the retained traces, oldest first.
func (r *Recorder) Snapshot() []InstanceTrace {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	live := make([]*Instance, 0, len(r.buf))
	// Ring order: entries from the eviction cursor onward are oldest.
	if len(r.buf) == r.cap {
		live = append(live, r.buf[r.next:]...)
		live = append(live, r.buf[:r.next]...)
	} else {
		live = append(live, r.buf...)
	}
	r.mu.Unlock()
	out := make([]InstanceTrace, 0, len(live))
	for _, i := range live {
		out = append(out, i.snapshot())
	}
	return out
}
