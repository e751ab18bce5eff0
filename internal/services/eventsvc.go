package services

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bindings"
	"repro/internal/events"
	"repro/internal/grh"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/snoop"
)

// DetectorOption configures the event services' detection fan-out.
type DetectorOption func(*detectorOpts)

type detectorOpts struct {
	pool       *DetectorPool
	tenant     string // accepted event tenant when tenantOnly
	tenantOnly bool
}

// newDetectorOpts applies opts over the default: a zero-worker pool of the
// service's own (no goroutine, nothing to close).
func newDetectorOpts(opts []DetectorOption) detectorOpts {
	o := detectorOpts{pool: NewDetectorPool(0, nil)}
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// WithDetectorPool shards the service's detectors across the pool's
// partitions: each registration is pinned to one partition by rule key,
// and with workers independent detectors evaluate in parallel and a slow
// delivery endpoint stalls only its own partition. Without the option the
// service gets a zero-worker pool of its own and evaluates inline on the
// stream's dispatch goroutine. The pool may be shared by several services;
// its lifetime is the caller's (close it after unsubscribing the services).
func WithDetectorPool(p *DetectorPool) DetectorOption {
	return func(o *detectorOpts) { o.pool = p }
}

// WithTenantFilter restricts the service to events published under one
// tenant: events whose Tenant differs are ignored before any detector
// state is touched (SNOOP detectors are stateful and order-sensitive, so
// cross-tenant events must never feed them). The empty string is a valid
// filter — it is the default tenant's wire form, which also matches
// events published by tenant-unaware code. Services built without this
// option observe every event, the pre-tenancy behaviour.
func WithTenantFilter(tenant string) DetectorOption {
	return func(o *detectorOpts) { o.tenant, o.tenantOnly = tenant, true }
}

// EventMatcher is the Atomic Event Matcher service of Section 4.2: rule
// event components consisting of a single atomic event pattern are
// registered here; every matching event on the stream produces a detection
// message delivered through the Deliverer.
//
// The registered patterns are sharded across the DetectorPool's partitions
// (one events.Matcher per partition, patterns pinned by rule key), so
// matching and delivery parallelize across partition workers while each
// pattern still sees the stream in order.
type EventMatcher struct {
	detectorOpts
	matchers []*events.Matcher // one per pool partition
	deliver  *Deliverer
	cancel   func()
}

// NewEventMatcher creates the service and subscribes it to the stream.
func NewEventMatcher(stream *events.Stream, deliver *Deliverer, opts ...DetectorOption) *EventMatcher {
	m := &EventMatcher{detectorOpts: newDetectorOpts(opts), deliver: deliver}
	for i := 0; i < m.pool.Workers(); i++ {
		m.matchers = append(m.matchers, events.NewMatcher())
	}
	m.cancel = stream.Subscribe(m.onEvent)
	return m
}

// onEvent routes one stream event into the matcher shards: one ordered
// task per partition that holds at least one pattern. The stream's ordered
// dispatch calls onEvent in Seq order and partitions preserve enqueue
// order, so every pattern observes a totally ordered feed.
func (m *EventMatcher) onEvent(ev events.Event) {
	if m.tenantOnly && ev.Tenant != m.tenant {
		return
	}
	m.pool.fanOut(func(part int) Task {
		shard := m.matchers[part]
		if shard.Len() == 0 {
			return nil
		}
		return func() func() {
			shard.OnEvent(ev)
			return nil
		}
	})
}

// Close unsubscribes the service from its stream.
func (m *EventMatcher) Close() { m.cancel() }

// Registrations returns the number of live registrations.
func (m *EventMatcher) Registrations() int {
	n := 0
	for _, shard := range m.matchers {
		n += shard.Len()
	}
	return n
}

// shardFor pins a registration key to its matcher shard.
func (m *EventMatcher) shardFor(key string) *events.Matcher {
	return m.matchers[m.pool.Pick(key)]
}

// Handle implements grh.Service: register-event and unregister-event.
func (m *EventMatcher) Handle(req *protocol.Request) (*protocol.Answer, error) {
	key := req.RuleID + "/" + req.Component
	switch req.Kind {
	case protocol.RegisterEvent:
		if req.Expression == nil {
			return nil, fmt.Errorf("eventmatcher: registration without a pattern")
		}
		p, err := events.NewPattern(req.Expression)
		if err != nil {
			return nil, err
		}
		ruleID, component, replyTo := req.RuleID, req.Component, req.ReplyTo
		m.shardFor(key).Register(key, p, func(d events.Detection) {
			a := &protocol.Answer{
				RuleID:      ruleID,
				Component:   component,
				AdmittedAt:  d.Event.AdmittedAt,
				PublishedAt: d.Event.Time,
			}
			for _, t := range d.Bindings {
				a.Rows = append(a.Rows, protocol.AnswerRow{
					Tuple:   t,
					Results: []bindings.Value{bindings.Fragment(d.Event.Payload.Clone())},
				})
			}
			// Delivery failures are the subscriber's problem, not the
			// stream's; detection must go on for other rules.
			_ = m.deliver.Deliver(a, replyTo)
		})
		return &protocol.Answer{RuleID: req.RuleID, Component: req.Component}, nil
	case protocol.UnregisterEvent:
		m.shardFor(key).Unregister(key)
		return &protocol.Answer{RuleID: req.RuleID, Component: req.Component}, nil
	default:
		return nil, fmt.Errorf("eventmatcher: unsupported request kind %q", req.Kind)
	}
}

// snoopEntry is one registered SNOOP detector. pend buffers the
// occurrences emitted during a Feed/Advance call so delivery happens after
// the detector step, outside every lock — neither the service-wide mutex
// nor the partition is held across deliver.Deliver's (potentially slow,
// synchronous, HTTP) call. pend is only touched by the task feeding the
// detector, on the partition it is pinned to.
type snoopEntry struct {
	key    string
	det    *snoop.Detector
	worker int
	pend   []delivery
}

// delivery is one detection answer and where it goes.
type delivery struct {
	answer  *protocol.Answer
	replyTo string
}

// SnoopService is the composite event detection service: event components
// in the SNOOP markup (snoop.NS) build detector graphs fed from the stream.
// The parameter context is taken from the expression's context attribute
// (default chronicle, the common choice for workflow-style rules).
//
// Concurrency contract: a snoop.Detector is not safe for concurrent use
// and is order-sensitive, so every detector is fed from exactly one
// serialization domain — the DetectorPool partition it is pinned to for
// life; event feeds and Advance ticks both reach it as that partition's
// tasks. The service-wide mutex guards only the registry; it is never held
// across Feed or delivery.
type SnoopService struct {
	detectorOpts
	deliver *Deliverer

	cancel func()

	mu       sync.Mutex // registry only: dets, byWorker, hub
	dets     map[string]*snoopEntry
	byWorker [][]*snoopEntry // copy-on-write partition → entries index
	hub      *obs.Hub

	lastSeq atomic.Uint64
}

// NewSnoopService creates the service and subscribes it to the stream.
func NewSnoopService(stream *events.Stream, deliver *Deliverer, opts ...DetectorOption) *SnoopService {
	s := &SnoopService{detectorOpts: newDetectorOpts(opts), deliver: deliver, dets: map[string]*snoopEntry{}}
	s.byWorker = make([][]*snoopEntry, s.pool.Workers())
	s.cancel = stream.Subscribe(s.onEvent)
	return s
}

// SetObs instruments every detector registered from now on with the hub's
// snoop counters.
func (s *SnoopService) SetObs(h *obs.Hub) {
	s.mu.Lock()
	s.hub = h
	s.mu.Unlock()
}

// Close unsubscribes the service from its stream.
func (s *SnoopService) Close() { s.cancel() }

// rebuildLocked recomputes the copy-on-write partition index. Caller holds
// s.mu.
func (s *SnoopService) rebuildLocked() {
	byWorker := make([][]*snoopEntry, len(s.byWorker))
	for _, e := range s.dets {
		byWorker[e.worker] = append(byWorker[e.worker], e)
	}
	s.byWorker = byWorker
}

// step runs one detector step (a Feed or an Advance) on every partition
// that holds detectors, as that partition's task, and delivers every
// occurrence the step emitted in the task's follow-up, after the partition
// is released. No lock is held across Deliver: an Advance tick's delivery
// may raise an event that the stream dispatches on this goroutine into the
// very partition the tick stepped.
func (s *SnoopService) step(step func(*snoop.Detector)) {
	s.pool.fanOut(func(part int) Task {
		s.mu.Lock()
		entries := s.byWorker[part] // copy-on-write: safe to iterate unlocked
		s.mu.Unlock()
		if len(entries) == 0 {
			return nil
		}
		return func() func() {
			var pend []delivery
			for _, e := range entries {
				step(e.det)
				pend = append(pend, e.pend...)
				e.pend = nil
			}
			if len(pend) == 0 {
				return nil
			}
			return func() {
				for _, d := range pend {
					// Delivery failures are the subscriber's problem;
					// detection goes on for the remaining rules.
					_ = s.deliver.Deliver(d.answer, d.replyTo)
				}
			}
		}
	})
}

func (s *SnoopService) onEvent(ev events.Event) {
	if s.tenantOnly && ev.Tenant != s.tenant {
		return
	}
	s.lastSeq.Store(ev.Seq)
	s.step(func(d *snoop.Detector) { d.Feed(ev) })
}

// Advance moves every detector's clock forward, firing elapsed periodic
// occurrences (snoop.Periodic) even while the stream is quiet. Call it from
// a ticker, or use StartTicker. The tick is routed through the pool's
// partitions so it serializes with each detector's event feed.
func (s *SnoopService) Advance(now time.Time) {
	seq := s.lastSeq.Load()
	s.step(func(d *snoop.Detector) { d.Advance(now, seq) })
}

// StartTicker advances the detectors' clocks every interval until the
// returned stop function is called.
func (s *SnoopService) StartTicker(interval time.Duration) (stop func()) {
	t := time.NewTicker(interval)
	done := make(chan struct{})
	go func() {
		for {
			select {
			case now := <-t.C:
				s.Advance(now)
			case <-done:
				return
			}
		}
	}()
	return func() {
		t.Stop()
		close(done)
	}
}

// Registrations returns the number of live detectors.
func (s *SnoopService) Registrations() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.dets)
}

// Handle implements grh.Service.
func (s *SnoopService) Handle(req *protocol.Request) (*protocol.Answer, error) {
	key := req.RuleID + "/" + req.Component
	switch req.Kind {
	case protocol.RegisterEvent:
		if req.Expression == nil {
			return nil, fmt.Errorf("snoopd: registration without an expression")
		}
		expr, err := snoop.ParseXML(req.Expression)
		if err != nil {
			return nil, err
		}
		ctx := snoop.Chronicle
		if cs := req.Expression.AttrValue("", "context"); cs != "" {
			ctx, err = snoop.ParseContext(cs)
			if err != nil {
				return nil, err
			}
		}
		entry := &snoopEntry{key: key, worker: s.pool.Pick(key)}
		ruleID, component, replyTo := req.RuleID, req.Component, req.ReplyTo
		det, err := snoop.NewDetector(expr, ctx, func(o snoop.Occurrence) {
			a := &protocol.Answer{RuleID: ruleID, Component: component}
			row := protocol.AnswerRow{Tuple: o.Bindings}
			for _, c := range o.Constituents {
				row.Results = append(row.Results, bindings.Fragment(c.Payload.Clone()))
				// A composite occurrence completes with its terminator, so
				// the lifecycle clock starts at the newest admission among
				// the constituent events.
				if c.AdmittedAt.After(a.AdmittedAt) {
					a.AdmittedAt = c.AdmittedAt
				}
				if c.Time.After(a.PublishedAt) {
					a.PublishedAt = c.Time
				}
			}
			a.Rows = append(a.Rows, row)
			// Buffered, not delivered: the feeding task hands pend to its
			// follow-up, which delivers outside every lock.
			entry.pend = append(entry.pend, delivery{a, replyTo})
		})
		if err != nil {
			return nil, err
		}
		entry.det = det
		s.mu.Lock()
		if s.hub != nil {
			det.SetObs(s.hub)
		}
		s.dets[key] = entry
		s.rebuildLocked()
		s.mu.Unlock()
		return &protocol.Answer{RuleID: req.RuleID, Component: req.Component}, nil
	case protocol.UnregisterEvent:
		s.mu.Lock()
		delete(s.dets, key)
		s.rebuildLocked()
		s.mu.Unlock()
		return &protocol.Answer{RuleID: req.RuleID, Component: req.Component}, nil
	default:
		return nil, fmt.Errorf("snoopd: unsupported request kind %q", req.Kind)
	}
}

// Ensure interface satisfaction.
var (
	_ grh.Service = (*EventMatcher)(nil)
	_ grh.Service = (*SnoopService)(nil)
)
