package services

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/bindings"
	"repro/internal/events"
	"repro/internal/grh"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/snoop"
	"repro/internal/xmltree"
)

// DetectorOption configures a DetectorHost's detection fan-out.
type DetectorOption func(*DetectorHost)

// WithDetectorPool shards the service's detectors across the pool's
// partitions: each registration is pinned to one partition by rule key,
// and with workers independent detectors evaluate in parallel and a slow
// delivery endpoint stalls only its own partition. Without the option the
// service gets a zero-worker pool of its own and evaluates inline on the
// stream's dispatch goroutine. The pool may be shared by several services;
// its lifetime is the caller's (close it after unsubscribing the services).
func WithDetectorPool(p *DetectorPool) DetectorOption {
	return func(h *DetectorHost) { h.pool = p }
}

// DetectorHost is the event detection service of Section 4.2 for every event
// component language: a language supplies only its compile step (an
// events.Language); the host subscribes to the stream, keeps the registry
// by tenant and rule/component key, pins each registration to a
// DetectorPool partition, builds the log:answers reply of every detection,
// stamped with the registration's tenant, and delivers it. One host serves
// every tenant: each event reaches only the detectors its own tenant
// registered for its name (events.Matcher).
//
// Concurrency contract: a detector is not safe for concurrent use and may be
// order-sensitive, so every detector is fed from exactly one serialization
// domain — the partition it is pinned to for life; event feeds and Advance
// ticks both reach it as that partition's tasks. Detections are buffered
// during the task and delivered in its follow-up, after the partition is
// released: a delivery may raise an event that the stream dispatches on this
// goroutine into the very partition that detected it.
type DetectorHost struct {
	pool    *DetectorPool
	compile events.Language
	deliver *Deliverer
	parts   []*hostPart // one per pool partition
	cancel  func()
	lastSeq atomic.Uint64
}

// hostPart is the host's share of one pool partition: the detectors pinned
// to it, and the answers they emitted during the running task. pend is only
// touched by the partition's tasks.
type hostPart struct {
	index *events.Matcher
	pend  []delivery
}

// delivery is one detection answer and where it goes.
type delivery struct {
	answer  *protocol.Answer
	replyTo string
}

// NewDetectorHost creates a host for one event language and subscribes it
// to the stream.
func NewDetectorHost(stream *events.Stream, deliver *Deliverer, compile events.Language, opts ...DetectorOption) *DetectorHost {
	// By default a zero-worker pool: inline detection, nothing to close.
	h := &DetectorHost{pool: NewDetectorPool(0, nil), compile: compile, deliver: deliver}
	for _, opt := range opts {
		opt(h)
	}
	for range h.pool.Workers() {
		h.parts = append(h.parts, &hostPart{index: events.NewMatcher()})
	}
	h.cancel = stream.Subscribe(h.onEvent)
	return h
}

// NewEventMatcher hosts the Atomic Event Matcher: rule event components
// consisting of a single atomic event pattern.
func NewEventMatcher(stream *events.Stream, deliver *Deliverer, opts ...DetectorOption) *DetectorHost {
	return NewDetectorHost(stream, deliver, atomicEvents, opts...)
}

// NewSnoopService hosts composite event detection in the SNOOP markup
// (snoop.NS), counting into the snoop_* metrics of deliver.Obs.
func NewSnoopService(stream *events.Stream, deliver *Deliverer, opts ...DetectorOption) *DetectorHost {
	return NewDetectorHost(stream, deliver, snoopEvents(deliver.Obs), opts...)
}

// atomicEvents compiles a bare domain event pattern; its detector listens
// to the pattern's root name.
func atomicEvents(expr *xmltree.Node, emit events.Emit) (events.Detector, error) {
	p, err := events.NewPattern(expr)
	if err != nil {
		return events.Detector{}, err
	}
	return events.Detector{Names: []xmltree.Name{p.Name()}, Feed: func(ev events.Event) {
		if ts := p.Match(ev); len(ts) > 0 {
			emit(ts, []events.Event{ev})
		}
	}}, nil
}

// compileSnoop parses and validates a SNOOP expression and its parameter
// context, taken from the expression's context attribute (default
// chronicle, the common choice for workflow-style rules).
func compileSnoop(expr *xmltree.Node) (snoop.Expr, snoop.ParamContext, error) {
	e, err := snoop.ParseXML(expr)
	if err != nil {
		return nil, 0, err
	}
	ctx := snoop.Chronicle
	if cs := expr.AttrValue("", "context"); cs != "" {
		if ctx, err = snoop.ParseContext(cs); err != nil {
			return nil, 0, err
		}
	}
	return e, ctx, snoop.Validate(e)
}

// snoopEvents compiles SNOOP expressions (compileSnoop). A detector listens
// to the names of its leaf patterns; one with a periodic operator also has
// an Advance, so its timers move on every event of its tenant.
func snoopEvents(hub *obs.Hub) events.Language {
	return func(expr *xmltree.Node, emit events.Emit) (events.Detector, error) {
		e, ctx, err := compileSnoop(expr)
		if err != nil {
			return events.Detector{}, err
		}
		d, err := snoop.NewDetector(e, ctx, func(o snoop.Occurrence) {
			emit([]bindings.Tuple{o.Bindings}, o.Constituents)
		})
		if err != nil {
			return events.Detector{}, err
		}
		d.SetObs(hub)
		det := events.Detector{Names: d.Names(), Feed: d.Feed}
		if d.Periodic() {
			det.Advance = d.Advance
		}
		return det, nil
	}
}

// Close unsubscribes the host from its stream.
func (h *DetectorHost) Close() { h.cancel() }

// Registrations returns the number of live detectors.
func (h *DetectorHost) Registrations() int {
	n := 0
	for _, part := range h.parts {
		n += part.index.Len()
	}
	return n
}

// step runs one detector step (feeding an event or advancing the clocks) on
// every partition that holds detectors, as that partition's task, and
// delivers what the step emitted in the task's follow-up.
func (h *DetectorHost) step(run func(*events.Matcher)) {
	h.pool.fanOut(func(i int) Task {
		part := h.parts[i]
		if part.index.Len() == 0 {
			return nil
		}
		return func() func() {
			run(part.index)
			pend := part.pend
			part.pend = nil
			if len(pend) == 0 {
				return nil
			}
			return func() {
				for _, d := range pend {
					// Delivery failures are the subscriber's problem;
					// detection goes on for the remaining rules.
					_ = h.deliver.Deliver(d.answer, d.replyTo)
				}
			}
		}
	})
}

func (h *DetectorHost) onEvent(ev events.Event) {
	h.lastSeq.Store(ev.Seq)
	h.step(func(m *events.Matcher) { m.OnEvent(ev) })
}

// Advance moves every detector's clock forward, firing elapsed periodic
// occurrences (snoop.Periodic) even while the stream is quiet; call it from
// a ticker. The tick is routed through the pool's partitions so it
// serializes with each detector's event feed.
func (h *DetectorHost) Advance(now time.Time) {
	seq := h.lastSeq.Load()
	h.step(func(m *events.Matcher) { m.Advance(now, seq) })
}

// Handle implements grh.Service: register-event and unregister-event,
// under the request's tenant.
func (h *DetectorHost) Handle(req *protocol.Request) (*protocol.Answer, error) {
	key := req.RuleID + "/" + req.Component
	part := h.parts[h.pool.Pick(key)]
	switch req.Kind {
	case protocol.RegisterEvent:
		if req.Expression == nil {
			return nil, fmt.Errorf("eventd: register-event %s without an expression", key)
		}
		tenant, ruleID, component, replyTo := req.Tenant, req.RuleID, req.Component, req.ReplyTo
		det, err := h.compile(req.Expression, func(tuples []bindings.Tuple, constituents []events.Event) {
			// Buffered, not delivered: the feeding task hands pend to its
			// follow-up, which delivers outside every lock.
			part.pend = append(part.pend, delivery{detectionAnswer(tenant, ruleID, component, tuples, constituents), replyTo})
		})
		if err != nil {
			return nil, err
		}
		if len(det.Names) == 0 {
			return nil, fmt.Errorf("eventd: register-event %s listens to no event name", key)
		}
		part.index.Add(tenant, key, det)
	case protocol.UnregisterEvent:
		part.index.Unregister(req.Tenant, key)
	default:
		return nil, fmt.Errorf("eventd: unsupported request kind %q", req.Kind)
	}
	return &protocol.Answer{RuleID: req.RuleID, Component: req.Component}, nil
}

// detectionAnswer is the log:answers message of one detection: a row per
// tuple whose results are the constituent events' payloads. A detection
// completes with its newest constituent, so the lifecycle clock starts at
// the newest admission and publication among them.
func detectionAnswer(tenant, ruleID, component string, tuples []bindings.Tuple, constituents []events.Event) *protocol.Answer {
	a := &protocol.Answer{RuleID: ruleID, Component: component, Tenant: tenant}
	for _, c := range constituents {
		if c.AdmittedAt.After(a.AdmittedAt) {
			a.AdmittedAt = c.AdmittedAt
		}
		if c.Time.After(a.PublishedAt) {
			a.PublishedAt = c.Time
		}
	}
	for _, t := range tuples {
		row := protocol.AnswerRow{Tuple: t}
		for _, c := range constituents {
			row.Results = append(row.Results, bindings.Fragment(c.Payload.Clone()))
		}
		a.Rows = append(a.Rows, row)
	}
	return a
}

var _ grh.Service = (*DetectorHost)(nil)
