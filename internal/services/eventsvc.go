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
	"repro/internal/ruleml"
	"repro/internal/snoop"
	"repro/internal/xmltree"
)

// DetectorHost is the event detection service of Section 4.2 for every event
// component language: a language supplies only its compile and build steps
// (an events.Language); the host subscribes to the stream, keeps the
// registry by tenant and rule/component key, builds the log:answers reply
// of every detection, stamped with the registration's tenant, and delivers
// it. One host serves every tenant: each event reaches only the detectors
// its own tenant registered for its name (events.Matcher).
//
// An event component is compiled once. In process the engine compiled it
// at registration with the host's Compile and the register-event request
// carries the form; the host builds its detector from that form, and
// compiles the expression itself only for a request that carries none (one
// off the wire).
//
// Concurrency contract: a detector is not safe for concurrent use and may be
// order-sensitive, so event feeds and Advance ticks run one at a time under
// the host's mutex; the stream feeds in Seq order. Detections are buffered
// during a step and delivered after the mutex is released: a delivery may
// raise an event that the stream dispatches on this goroutine into this
// very host. A local delivery to Deliverer.Admit is admitted there, in Seq
// order, and what it leaves to run goes to the publishing goroutine
// (events.Origin.Later).
type DetectorHost struct {
	compile func(*xmltree.Node) (any, error)
	build   func(req *protocol.Request, emit events.Emit) (events.Detector, error)
	deliver *Deliverer
	index   *events.Matcher
	cancel  func()
	lastSeq atomic.Uint64

	mu   sync.Mutex // held for one feed or Advance tick
	pend []delivery // answers emitted during the running step; guarded by mu
}

// delivery is one detection answer and where it goes.
type delivery struct {
	answer  *protocol.Answer
	replyTo string
}

// NewDetectorHost creates a host for one event language and subscribes it
// to the stream.
func NewDetectorHost[F any](stream *events.Stream, deliver *Deliverer, lang events.Language[F]) *DetectorHost {
	h := &DetectorHost{deliver: deliver, index: events.NewMatcher()}
	h.compile = func(expr *xmltree.Node) (any, error) { return lang.Compile(expr) }
	h.build = func(req *protocol.Request, emit events.Emit) (events.Detector, error) {
		form, ok := req.Compiled.(F)
		if !ok {
			var err error
			if form, err = lang.Compile(req.Expression); err != nil {
				return events.Detector{}, err
			}
		}
		return lang.Build(form, emit)
	}
	h.cancel = stream.SubscribeOrigin(h.onEvent)
	return h
}

// NewEventMatcher hosts the Atomic Event Matcher: rule event components
// consisting of a single atomic event pattern.
func NewEventMatcher(stream *events.Stream, deliver *Deliverer) *DetectorHost {
	return NewDetectorHost(stream, deliver, atomicEvents)
}

// NewSnoopService hosts composite event detection in the SNOOP markup
// (snoop.NS), counting into the snoop_* metrics of deliver.Obs.
func NewSnoopService(stream *events.Stream, deliver *Deliverer) *DetectorHost {
	return NewDetectorHost(stream, deliver, snoopEvents(deliver.Obs))
}

// Compile compiles an event component in the host's language, once, at
// registration: the Compile of the host's grh.Descriptor. An opaque
// component has no expression element to compile here; its text reaches
// the host wrapped, and the host compiles it on registration.
func (h *DetectorHost) Compile(c ruleml.Component) (any, error) {
	if c.Expression == nil {
		return nil, nil
	}
	return h.compile(c.Expression)
}

// atomicEvents compiles a bare domain event pattern; its detector listens
// to the pattern's root name.
var atomicEvents = events.Language[*events.Pattern]{
	Compile: events.NewPattern,
	Build: func(p *events.Pattern, emit events.Emit) (events.Detector, error) {
		return events.Detector{Names: p.Names(), Feed: func(ev events.Event) {
			if ts := p.Match(ev); len(ts) > 0 {
				emit(ts, []events.Event{ev})
			}
		}}, nil
	},
}

// snoopForm is a compiled SNOOP event component: the expression and the
// parameter context its detector runs in.
type snoopForm struct {
	expr snoop.Expr
	ctx  snoop.ParamContext
}

// Names returns the root names of the expression's leaf patterns.
func (f *snoopForm) Names() []xmltree.Name { return snoop.Names(f.expr) }

// Binds returns the variables every occurrence of the expression binds.
func (f *snoopForm) Binds() []string { return snoop.Bound(f.expr) }

// compileSnoop parses and validates a SNOOP expression and its parameter
// context, taken from the expression's context attribute (default
// chronicle, the common choice for workflow-style rules).
func compileSnoop(expr *xmltree.Node) (*snoopForm, error) {
	e, err := snoop.ParseXML(expr)
	if err != nil {
		return nil, err
	}
	ctx := snoop.Chronicle
	if cs := expr.AttrValue("", "context"); cs != "" {
		if ctx, err = snoop.ParseContext(cs); err != nil {
			return nil, err
		}
	}
	if err := snoop.Validate(e); err != nil {
		return nil, err
	}
	return &snoopForm{e, ctx}, nil
}

// snoopEvents compiles SNOOP expressions (compileSnoop). A detector listens
// to the names of its leaf patterns; one with a periodic operator also has
// an Advance, so its timers move on every event of its tenant.
func snoopEvents(hub *obs.Hub) events.Language[*snoopForm] {
	return events.Language[*snoopForm]{
		Compile: compileSnoop,
		Build: func(f *snoopForm, emit events.Emit) (events.Detector, error) {
			d, err := snoop.NewDetector(f.expr, f.ctx, func(o snoop.Occurrence) {
				emit([]bindings.Tuple{o.Bindings}, o.Constituents)
			})
			if err != nil {
				return events.Detector{}, err
			}
			d.SetObs(hub)
			det := events.Detector{Names: f.Names(), Feed: d.Feed}
			if d.Periodic() {
				det.Advance = d.Advance
			}
			return det, nil
		},
	}
}

// Close unsubscribes the host from its stream.
func (h *DetectorHost) Close() { h.cancel() }

// Registrations returns the number of live detectors.
func (h *DetectorHost) Registrations() int { return h.index.Len() }

// step runs one detector step (feeding an event or advancing the clocks)
// under the host's mutex, then delivers what the step emitted with the
// mutex released. A local delivery hands what it does not need to do in
// stream order to o.
func (h *DetectorHost) step(run func(*events.Matcher), o events.Origin) {
	h.mu.Lock()
	run(h.index)
	pend := h.pend
	h.pend = nil
	h.mu.Unlock()
	for _, d := range pend {
		// Delivery failures are the subscriber's problem; detection goes on
		// for the remaining rules.
		_ = h.deliver.deliver(d.answer, d.replyTo, o)
	}
}

func (h *DetectorHost) onEvent(ev events.Event, o events.Origin) {
	h.lastSeq.Store(ev.Seq)
	h.step(func(m *events.Matcher) { m.OnEvent(ev) }, o)
}

// Advance moves every detector's clock forward, firing elapsed periodic
// occurrences (snoop.Periodic) even while the stream is quiet; call it from
// a ticker. The tick serializes with the event feed under the host's mutex;
// no publisher waits on it, so its detections are delivered without an
// origin.
func (h *DetectorHost) Advance(now time.Time) {
	seq := h.lastSeq.Load()
	h.step(func(m *events.Matcher) { m.Advance(now, seq) }, events.Origin{})
}

// Handle implements grh.Service: register-event and unregister-event,
// under the request's tenant.
func (h *DetectorHost) Handle(req *protocol.Request) (*protocol.Answer, error) {
	key := req.RuleID + "/" + req.Component
	switch req.Kind {
	case protocol.RegisterEvent:
		if req.Expression == nil {
			return nil, fmt.Errorf("eventd: register-event %s without an expression", key)
		}
		tenant, ruleID, component, replyTo := req.Tenant, req.RuleID, req.Component, req.ReplyTo
		det, err := h.build(req, func(tuples []bindings.Tuple, constituents []events.Event) {
			// Buffered, not delivered: the running step delivers pend once
			// it has released the host's mutex.
			h.pend = append(h.pend, delivery{detectionAnswer(tenant, ruleID, component, tuples, constituents), replyTo})
		})
		if err != nil {
			return nil, err
		}
		if len(det.Names) == 0 {
			return nil, fmt.Errorf("eventd: register-event %s listens to no event name", key)
		}
		h.index.Add(tenant, key, det)
	case protocol.UnregisterEvent:
		h.index.Unregister(req.Tenant, key)
	default:
		return nil, fmt.Errorf("eventd: unsupported request kind %q", req.Kind)
	}
	return &protocol.Answer{RuleID: req.RuleID, Component: req.Component}, nil
}

// detectionAnswer is the log:answers message of one detection: a row per
// tuple whose results are the constituent events' payloads. The payloads
// are shared, not copied: every rule that detects an event reads the same
// tree, and the engine copies it only for a rule that binds it to a
// variable. A detection completes with its newest constituent, so the
// lifecycle clock starts at the newest admission and publication among
// them.
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
			row.Results = append(row.Results, bindings.Fragment(c.Payload))
		}
		a.Rows = append(a.Rows, row)
	}
	return a
}

var _ grh.Service = (*DetectorHost)(nil)
