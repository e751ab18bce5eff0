// Package winlang is a sliding-window counting event language — an event
// component language that is NOT part of the paper, implemented to
// demonstrate the framework's central claim: a new language plugs into the
// engine by registering one more service under its namespace URI, with no
// engine or GRH changes.
//
// An expression
//
//	<win:atleast xmlns:win="…/winlang" n="3" within="10s">
//	  <shop:failed-login user="$U"/>
//	</win:atleast>
//
// occurs when the n-th event matching the pattern (with compatible variable
// bindings — $U above makes the count per-user) arrives within the trailing
// window. Each detection consumes the contributing events, so overlapping
// windows do not re-fire (tumbling-on-detection semantics).
package winlang

import (
	"fmt"
	"strconv"
	"sync"
	"time"

	"repro/internal/bindings"
	"repro/internal/events"
	"repro/internal/grh"
	"repro/internal/protocol"
	"repro/internal/xmltree"
)

// NS is the language's namespace URI; event components in this namespace
// are dispatched to the window service.
const NS = "http://www.semwebtech.org/languages/2006/winlang"

// Expr is a compiled window expression.
type Expr struct {
	N       int
	Within  time.Duration
	Pattern *events.Pattern
}

// Parse builds an expression from its markup.
func Parse(n *xmltree.Node) (*Expr, error) {
	root := n.Root()
	if root == nil || root.Name.Space != NS || root.Name.Local != "atleast" {
		return nil, fmt.Errorf("winlang: expected win:atleast, got %v", root)
	}
	count, err := strconv.Atoi(root.AttrValue("", "n"))
	if err != nil || count < 1 {
		return nil, fmt.Errorf("winlang: win:atleast needs a positive integer n attribute")
	}
	within, err := time.ParseDuration(root.AttrValue("", "within"))
	if err != nil || within <= 0 {
		return nil, fmt.Errorf("winlang: win:atleast needs a positive within duration: %v", err)
	}
	kids := root.ChildElements()
	if len(kids) != 1 {
		return nil, fmt.Errorf("winlang: win:atleast must wrap exactly one pattern element")
	}
	p, err := events.NewPattern(kids[0])
	if err != nil {
		return nil, err
	}
	return &Expr{N: count, Within: within, Pattern: p}, nil
}

// Detection is one window detection: the joined bindings and the
// contributing events.
type Detection struct {
	Bindings     bindings.Tuple
	Constituents []events.Event
}

// Detector evaluates one window expression over a stream. Not safe for
// concurrent use; the Service wraps it with a mutex.
type Detector struct {
	expr *Expr
	sink func(Detection)
	// buckets groups pending matches by binding compatibility key.
	buckets map[string][]match
}

type match struct {
	tuple bindings.Tuple
	event events.Event
}

// NewDetector builds a detector delivering to sink.
func NewDetector(e *Expr, sink func(Detection)) *Detector {
	return &Detector{expr: e, sink: sink, buckets: map[string][]match{}}
}

// Feed processes one event.
func (d *Detector) Feed(ev events.Event) {
	tuples := d.expr.Pattern.Match(ev)
	if len(tuples) == 0 {
		return
	}
	cutoff := ev.Time.Add(-d.expr.Within)
	for _, t := range tuples {
		key := bucketKey(t)
		// Expire out-of-window matches.
		kept := d.buckets[key][:0]
		for _, m := range d.buckets[key] {
			if m.event.Time.After(cutoff) {
				kept = append(kept, m)
			}
		}
		kept = append(kept, match{t, ev})
		if len(kept) >= d.expr.N {
			det := Detection{Bindings: bindings.Tuple{}}
			for _, m := range kept {
				det.Bindings = det.Bindings.Merge(m.tuple)
				det.Constituents = append(det.Constituents, m.event)
			}
			d.sink(det)
			kept = kept[:0] // consume
		}
		d.buckets[key] = kept
	}
}

// bucketKey canonicalizes a tuple's bindings so only compatible matches
// count together (per-user, per-item, … windows).
func bucketKey(t bindings.Tuple) string {
	key := ""
	for _, v := range t.Vars() {
		key += v + "\x00" + t[v].Key() + "\x01"
	}
	return key
}

// Service exposes the language as an event detection service implementing
// grh.Service, exactly like the bundled SNOOP service.
//
// Detection order: detectors are fed, and so deliver, in registration
// order, so a rule set and a Seq-ordered stream determine the action log.
// Registering a key again replaces its detector and moves the key to the
// end of that order.
type Service struct {
	deliver *protocolDeliverer
	mu      sync.Mutex
	dets    []keyedDetector // registration order
	cancel  func()
}

type keyedDetector struct {
	key string
	det *Detector
}

// protocolDeliverer is the minimal delivery contract (mirrors
// services.Deliverer without importing it, keeping this package showcase-
// minimal: Local receives detection answers).
type protocolDeliverer struct {
	Local func(*protocol.Answer)
}

// NewService subscribes a window service to the stream, delivering
// detection answers to sink.
func NewService(stream *events.Stream, sink func(*protocol.Answer)) *Service {
	s := &Service{deliver: &protocolDeliverer{Local: sink}}
	s.cancel = stream.Subscribe(s.onEvent)
	return s
}

// Close unsubscribes from the stream.
func (s *Service) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cancel != nil {
		s.cancel()
		s.cancel = nil
	}
}

func (s *Service) onEvent(ev events.Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, d := range s.dets {
		d.det.Feed(ev)
	}
}

// removeLocked drops key's detector, if any. Caller holds s.mu.
func (s *Service) removeLocked(key string) {
	for i, d := range s.dets {
		if d.key == key {
			s.dets = append(s.dets[:i], s.dets[i+1:]...)
			return
		}
	}
}

// Handle implements grh.Service.
func (s *Service) Handle(req *protocol.Request) (*protocol.Answer, error) {
	key := req.RuleID + "/" + req.Component
	switch req.Kind {
	case protocol.RegisterEvent:
		expr, err := ParseCached(req.Expression)
		if err != nil {
			return nil, err
		}
		ruleID, component := req.RuleID, req.Component
		det := NewDetector(expr, func(d Detection) {
			a := &protocol.Answer{RuleID: ruleID, Component: component}
			row := protocol.AnswerRow{Tuple: d.Bindings}
			for _, c := range d.Constituents {
				row.Results = append(row.Results, bindings.Fragment(c.Payload.Clone()))
			}
			a.Rows = append(a.Rows, row)
			s.deliver.Local(a)
		})
		s.mu.Lock()
		s.removeLocked(key)
		s.dets = append(s.dets, keyedDetector{key, det})
		s.mu.Unlock()
		return &protocol.Answer{RuleID: ruleID, Component: component}, nil
	case protocol.UnregisterEvent:
		s.mu.Lock()
		s.removeLocked(key)
		s.mu.Unlock()
		return &protocol.Answer{RuleID: req.RuleID, Component: req.Component}, nil
	default:
		return nil, fmt.Errorf("winlang: unsupported request kind %q", req.Kind)
	}
}

var _ grh.Service = (*Service)(nil)
