// Package events defines the event model of the framework: events are XML
// fragments marked up in a domain namespace (e.g. <travel:booking
// person="John Doe" from="Munich" to="Paris"/>), carried on an event stream,
// and matched against atomic event patterns that bind logical variables —
// the Atomic Event Matcher of Section 4.2.
package events

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/bindings"
	"repro/internal/xmltree"
)

// Event is one event occurrence: the marked-up event payload plus its
// position in the stream (Seq, strictly increasing per stream) and the wall
// time it was observed. AdmittedAt, when non-zero, is the monotonic
// admission timestamp stamped at the edge (POST /events accepting the
// request); it anchors the admit→action lifecycle histograms.
// Programmatic publishes (recovery replay, act:raise, tests) leave it
// zero and are excluded from lifecycle latency accounting.
type Event struct {
	Payload    *xmltree.Node
	Seq        uint64
	Time       time.Time
	AdmittedAt time.Time
	// Tenant is the namespace the event was published under. The empty
	// string means the default tenant, so every pre-tenancy construction
	// site (tests, recovery replay, act:raise on an unscoped executor)
	// keeps its behaviour. Matching services filter on it: a rule only
	// ever sees events published under its own tenant.
	Tenant string
}

// New wraps an XML payload as an event occurrence with the current time;
// Seq is assigned by the Stream on publication.
func New(payload *xmltree.Node) Event {
	return Event{Payload: payload.Root(), Time: time.Now()}
}

// NewAdmitted wraps an XML payload as an event occurrence admitted from
// the outside world at admittedAt (the instant the admission layer
// accepted it, before parsing or journaling). Time is stamped by
// Stream.Publish so that admit-stage latency (publish − admission)
// covers the parse/journal work in between.
func NewAdmitted(payload *xmltree.Node, admittedAt time.Time) Event {
	return Event{Payload: payload.Root(), AdmittedAt: admittedAt}
}

// String renders the event for traces.
func (e Event) String() string {
	return fmt.Sprintf("#%d %s", e.Seq, e.Payload.String())
}

// Stream is a pub/sub broker for events. Subscribers are invoked
// synchronously, in subscription order, which gives rules deterministic
// detection order. Safe for concurrent use.
//
// Ordering guarantee: deliveries are totally ordered by Seq. Even under
// concurrent publishers every subscriber observes strictly increasing
// sequence numbers — sequencing and delivery are decoupled into an ordered
// dispatch stage, so two racing Publish calls can never reach a subscriber
// out of stream order (SNOOP's sequence/aperiodic/cumulative operators
// depend on this invariant).
//
// Dispatch contract: the first publisher to find the stream idle becomes
// the dispatcher and drains the delivery queue in Seq order on its own
// goroutine; concurrent publishers enqueue and block until their event has
// been delivered, so Publish still returns only after delivery.
// Back-pressure is therefore the publisher's: a slow subscriber extends the
// time every Publish call blocks.
//
// Inside a subscriber use PublishDetached: the running dispatcher delivers
// the event after the current one, preserving order. Publish or
// PublishBatch there is a programming error — the call would wait for a
// delivery that cannot start until its own subscriber returns, and
// deadlocks.
type Stream struct {
	mu   sync.Mutex
	cond *sync.Cond // signals delivered advancing; lazily bound to mu
	seq  uint64
	subs []subscriber // live subscribers, ascending id = subscription order
	next int

	queue       []pendingDelivery // sequenced, undelivered events (Seq order)
	dispatching bool              // a dispatcher goroutine is draining queue
	delivered   uint64            // highest Seq fully delivered to all subscribers
}

type subscriber struct {
	id int
	fn func(Event)
}

type pendingDelivery struct {
	ev       Event
	handlers []func(Event)
}

// NewStream returns an empty stream.
func NewStream() *Stream {
	s := &Stream{}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// Subscribe registers a handler for every future event and returns a
// cancel function, which may be called more than once and concurrently.
func (s *Stream) Subscribe(f func(Event)) (cancel func()) {
	s.mu.Lock()
	id := s.next
	s.next++
	s.subs = append(s.subs, subscriber{id: id, fn: f})
	s.mu.Unlock()
	return func() {
		s.mu.Lock()
		for i, sub := range s.subs {
			if sub.id == id {
				s.subs = append(s.subs[:i:i], s.subs[i+1:]...)
				break
			}
		}
		s.mu.Unlock()
	}
}

// handlersLocked snapshots the live subscriber functions in subscription
// order. Caller holds s.mu.
func (s *Stream) handlersLocked() []func(Event) {
	handlers := make([]func(Event), len(s.subs))
	for i, sub := range s.subs {
		handlers[i] = sub.fn
	}
	return handlers
}

// Publish stamps the event with the next sequence number and delivers it to
// all subscribers through the ordered dispatch stage. It returns the
// stamped event once the event has been delivered. It must not be called
// from inside a subscriber (it would wait on its own caller and deadlock);
// use PublishDetached there.
func (s *Stream) Publish(ev Event) Event {
	evs := [1]Event{ev}
	s.publish(evs[:], true)
	return evs[0]
}

// PublishBatch stamps the events with consecutive sequence numbers under a
// single lock acquisition and delivers them in order. All events share one
// observation time (unless already stamped) and one subscriber snapshot.
// Like Publish, it returns after the last event has been delivered.
func (s *Stream) PublishBatch(evs []Event) []Event {
	s.publish(evs, true)
	return evs
}

// PublishDetached stamps and enqueues the event for ordered delivery but
// never waits for it: when the stream is idle the caller dispatches (and
// the event is delivered before PublishDetached returns, matching Publish);
// when a dispatch is already running — on this goroutine or another — the
// event is left for that dispatcher. It is the only publish allowed inside
// a subscriber, e.g. act:raise from an action that runs on the goroutine
// delivering the detection.
func (s *Stream) PublishDetached(ev Event) Event {
	evs := [1]Event{ev}
	s.publish(evs[:], false)
	return evs[0]
}

// publish sequences evs, enqueues them on the ordered dispatch queue, and
// either drains the queue (becoming the dispatcher) or, when wait is set,
// blocks until the last of evs is delivered.
func (s *Stream) publish(evs []Event, wait bool) {
	if len(evs) == 0 {
		return
	}
	now := time.Now()
	s.mu.Lock()
	handlers := s.handlersLocked()
	for i := range evs {
		s.seq++
		evs[i].Seq = s.seq
		if evs[i].Time.IsZero() {
			evs[i].Time = now
		}
		s.queue = append(s.queue, pendingDelivery{ev: evs[i], handlers: handlers})
	}
	last := evs[len(evs)-1].Seq
	if s.dispatching {
		// Someone is draining the queue and will deliver our events in
		// order.
		for wait && s.delivered < last {
			s.cond.Wait()
		}
		s.mu.Unlock()
		return
	}
	s.dispatching = true
	s.drainLocked()
	s.dispatching = false
	s.mu.Unlock()
}

// drainLocked delivers queued events in Seq order until the queue is
// empty, releasing the lock around subscriber callbacks. Events enqueued
// by concurrent or reentrant publishers while draining are picked up
// before returning. Caller holds s.mu and has claimed the dispatcher role.
func (s *Stream) drainLocked() {
	for len(s.queue) > 0 {
		d := s.queue[0]
		s.queue[0] = pendingDelivery{}
		s.queue = s.queue[1:]
		if len(s.queue) == 0 {
			s.queue = nil // release the drained backing array
		}
		s.mu.Unlock()
		for _, h := range d.handlers {
			h(d.ev)
		}
		s.mu.Lock()
		s.delivered = d.ev.Seq
		s.cond.Broadcast()
	}
}

// --- atomic event patterns -------------------------------------------------------

// Pattern is an atomic event pattern: an XML template whose attribute
// values and text content may be variables ($Name). Matching an event
// yields the tuples of variable bindings; a pattern with no variables
// yields one empty tuple on match.
//
// Matching rules:
//   - the pattern element matches an event element with the same name;
//   - every pattern attribute must be present on the event; a "$Var" value
//     binds the variable (joining if already bound), otherwise values must
//     be equal;
//   - every pattern child element must match some event child (each event
//     child used at most once per combination); extra event children are
//     ignored;
//   - pattern text content of the form "$Var" binds the element's text;
//     other non-whitespace text must equal the event's text.
type Pattern struct {
	root *xmltree.Node
}

// NewPattern builds a pattern from a template element (the root element is
// used if a document is given).
func NewPattern(template *xmltree.Node) (*Pattern, error) {
	r := template.Root()
	if r == nil {
		return nil, fmt.Errorf("events: pattern has no root element")
	}
	return &Pattern{root: r}, nil
}

// MustPattern parses a pattern from XML source, panicking on error.
func MustPattern(src string) *Pattern {
	p, err := NewPattern(xmltree.MustParse(src))
	if err != nil {
		panic(err)
	}
	return p
}

// Name returns the event name the pattern matches.
func (p *Pattern) Name() xmltree.Name { return p.root.Name }

// Vars returns the variable names the pattern binds, sorted.
func (p *Pattern) Vars() []string {
	set := map[string]bool{}
	var walk func(n *xmltree.Node)
	walk = func(n *xmltree.Node) {
		for _, a := range n.Attrs {
			if v, ok := varName(a.Value); ok && !a.IsNamespaceDecl() {
				set[v] = true
			}
		}
		if v, ok := varName(ownText(n)); ok {
			set[v] = true
		}
		for _, c := range n.ChildElements() {
			walk(c)
		}
	}
	walk(p.root)
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// varName reports whether s is a variable reference "$Name".
func varName(s string) (string, bool) {
	s = strings.TrimSpace(s)
	if len(s) > 1 && s[0] == '$' {
		return s[1:], true
	}
	return "", false
}

// ownText returns the concatenated direct text children of n.
func ownText(n *xmltree.Node) string {
	var b strings.Builder
	for _, c := range n.Children {
		if c.Kind == xmltree.TextNode {
			b.WriteString(c.Text)
		}
	}
	return b.String()
}

// Match matches the pattern against an event and returns the resulting
// tuples of variable bindings (empty slice: no match). Multiple tuples
// arise when repeated pattern children match different event children.
func (p *Pattern) Match(ev Event) []bindings.Tuple {
	if ev.Payload == nil {
		return nil
	}
	return matchElement(p.root, ev.Payload, bindings.Tuple{})
}

func matchElement(pat, ev *xmltree.Node, t bindings.Tuple) []bindings.Tuple {
	if pat.Name != ev.Name {
		return nil
	}
	cur := t.Clone()
	for _, a := range pat.Attrs {
		if a.IsNamespaceDecl() {
			continue
		}
		got, ok := ev.Attr(a.Name.Space, a.Name.Local)
		if !ok {
			return nil
		}
		if v, isVar := varName(a.Value); isVar {
			if !bindVar(cur, v, bindings.Str(got)) {
				return nil
			}
			continue
		}
		if a.Value != got {
			return nil
		}
	}
	if txt := strings.TrimSpace(ownText(pat)); txt != "" {
		evTxt := strings.TrimSpace(ownText(ev))
		if v, isVar := varName(txt); isVar {
			if !bindVar(cur, v, bindings.Str(evTxt)) {
				return nil
			}
		} else if txt != evTxt {
			return nil
		}
	}
	patKids := pat.ChildElements()
	if len(patKids) == 0 {
		return []bindings.Tuple{cur}
	}
	evKids := ev.ChildElements()
	return matchChildren(patKids, evKids, cur)
}

// matchChildren assigns each pattern child to a distinct event child,
// collecting every consistent combination of bindings.
func matchChildren(patKids, evKids []*xmltree.Node, t bindings.Tuple) []bindings.Tuple {
	if len(patKids) == 0 {
		return []bindings.Tuple{t}
	}
	var out []bindings.Tuple
	first, rest := patKids[0], patKids[1:]
	for i, ek := range evKids {
		for _, t2 := range matchElement(first, ek, t) {
			remaining := make([]*xmltree.Node, 0, len(evKids)-1)
			remaining = append(remaining, evKids[:i]...)
			remaining = append(remaining, evKids[i+1:]...)
			out = append(out, matchChildren(rest, remaining, t2)...)
		}
	}
	return out
}

func bindVar(t bindings.Tuple, name string, v bindings.Value) bool {
	if old, ok := t[name]; ok {
		return old.Equal(v)
	}
	t[name] = v
	return true
}

// Matcher is the Atomic Event Matcher service core: a set of registered
// patterns evaluated against every published event. Safe for concurrent use.
type Matcher struct {
	mu       sync.Mutex
	patterns map[string]*registration
}

type registration struct {
	pattern *Pattern
	sink    func(Detection)
}

// Detection is delivered to a registration's sink for every event matching
// its pattern: the identifying key, the tuples of variable bindings and the
// matched event.
type Detection struct {
	Key      string
	Bindings []bindings.Tuple
	Event    Event
}

// NewMatcher returns an empty matcher.
func NewMatcher() *Matcher {
	return &Matcher{patterns: map[string]*registration{}}
}

// Register adds a pattern under a key (replacing any previous registration
// with that key); sink is called for each matching event.
func (m *Matcher) Register(key string, p *Pattern, sink func(Detection)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.patterns[key] = &registration{p, sink}
}

// Unregister removes a registration and reports whether it existed.
func (m *Matcher) Unregister(key string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.patterns[key]
	delete(m.patterns, key)
	return ok
}

// Len returns the number of registrations.
func (m *Matcher) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.patterns)
}

// OnEvent matches all registered patterns against the event, delivering a
// Detection per matching registration. It is the handler to subscribe to a
// Stream.
func (m *Matcher) OnEvent(ev Event) {
	m.mu.Lock()
	regs := make(map[string]*registration, len(m.patterns))
	for k, r := range m.patterns {
		regs[k] = r
	}
	m.mu.Unlock()
	for key, r := range regs {
		if ts := r.pattern.Match(ev); len(ts) > 0 {
			r.sink(Detection{Key: key, Bindings: ts, Event: ev})
		}
	}
}
