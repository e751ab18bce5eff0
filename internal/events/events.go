// Package events defines the event model of the framework: events are XML
// fragments marked up in a domain namespace (e.g. <travel:booking
// person="John Doe" from="Munich" to="Paris"/>), carried on an event stream,
// and matched against atomic event patterns that bind logical variables —
// the Atomic Event Matcher of Section 4.2.
package events

import (
	"fmt"
	"sync"
	"time"

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
	// keeps its behaviour. The Matcher indexes detectors by it: a rule only
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
// goroutine; concurrent publishers enqueue and block until their events
// have been delivered, so Publish still returns only after delivery.
// Back-pressure is therefore the publisher's: a slow subscriber extends the
// time every Publish call blocks.
//
// Follow-ups: a subscriber registered with SubscribeOrigin may hand work
// that need not run in stream order to the publishing goroutine
// (Origin.Later). Publish and PublishBatch run it after their own events
// have been delivered, outside the dispatch stage, and return after it, so
// the follow-ups of concurrent publishers overlap while delivery stays
// ordered.
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
	// subs holds the live subscribers, ascending id = subscription order.
	// It is copy-on-write: Subscribe and cancel store a new slice and never
	// write to a stored one, so queued deliveries share it as their
	// subscriber snapshot.
	subs []subscriber
	next int

	queue       []pendingDelivery // sequenced, undelivered events (Seq order)
	dispatching bool              // a dispatcher goroutine is draining queue
	delivered   uint64            // highest Seq fully delivered to all subscribers
	// later holds the follow-ups handed to waiting publish calls, keyed by
	// the call's last Seq, until the call collects them.
	later map[uint64][]func()
}

type subscriber struct {
	id int
	fn func(Event, Origin)
}

type pendingDelivery struct {
	ev   Event
	subs []subscriber // s.subs as of sequencing; shared, read-only
	call uint64       // the waiting publish call's last Seq; 0 for PublishDetached
}

// Origin is the publish call an event delivery belongs to, as seen by a
// subscriber registered with SubscribeOrigin. It is a small value and holds
// nothing of the event, so a detector that keeps events does not keep it.
type Origin struct {
	s    *Stream
	call uint64
}

// Later hands fn to the goroutine of the Publish or PublishBatch call that
// sequenced the event being delivered: fn runs there once all of the call's
// events have been delivered and before the call returns, after the
// functions handed over before it. Where no publisher waits — the event
// came from PublishDetached, o is the zero Origin, or the call's events are
// all delivered already — Later runs fn now, on the calling goroutine.
func (o Origin) Later(fn func()) {
	if o.call != 0 {
		s := o.s
		s.mu.Lock()
		// A call collects its follow-ups only after its last event was
		// delivered, so until then they are sure to be run.
		if s.delivered < o.call {
			if s.later == nil {
				s.later = map[uint64][]func(){}
			}
			s.later[o.call] = append(s.later[o.call], fn)
			s.mu.Unlock()
			return
		}
		s.mu.Unlock()
	}
	fn()
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
	return s.SubscribeOrigin(func(ev Event, _ Origin) { f(ev) })
}

// SubscribeOrigin is Subscribe for a handler that also receives the origin
// of each delivery, to hand work to the publishing goroutine.
func (s *Stream) SubscribeOrigin(f func(Event, Origin)) (cancel func()) {
	s.mu.Lock()
	id := s.next
	s.next++
	s.subs = append(s.subs[:len(s.subs):len(s.subs)], subscriber{id: id, fn: f})
	s.mu.Unlock()
	return func() {
		s.mu.Lock()
		for i, sub := range s.subs {
			if sub.id == id {
				rest := make([]subscriber, 0, len(s.subs)-1)
				s.subs = append(append(rest, s.subs[:i]...), s.subs[i+1:]...)
				break
			}
		}
		s.mu.Unlock()
	}
}

// Subscribers returns the number of live subscribers.
func (s *Stream) Subscribers() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.subs)
}

// Publish stamps the event with the next sequence number and delivers it to
// all subscribers through the ordered dispatch stage. It returns the
// stamped event once the event has been delivered and the follow-ups its
// delivery handed over have run. It must not be called from inside a
// subscriber (it would wait on its own caller and deadlock); use
// PublishDetached there.
func (s *Stream) Publish(ev Event) Event {
	evs := [1]Event{ev}
	s.publish(evs[:], true)
	return evs[0]
}

// PublishBatch stamps the events with consecutive sequence numbers under a
// single lock acquisition and delivers them in order. All events share one
// observation time (unless already stamped) and one subscriber snapshot.
// Like Publish, it returns after the last event has been delivered and the
// follow-ups of all of them have run, in Seq order.
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
// delivering the detection. No publisher waits for a detached event, so
// its subscribers' follow-ups run during its delivery.
func (s *Stream) PublishDetached(ev Event) Event {
	evs := [1]Event{ev}
	s.publish(evs[:], false)
	return evs[0]
}

// publish sequences evs, enqueues them on the ordered dispatch queue, and
// either drains the queue (becoming the dispatcher) or, when wait is set,
// blocks until the last of evs is delivered. A waiting call then runs the
// follow-ups handed to it.
func (s *Stream) publish(evs []Event, wait bool) {
	if len(evs) == 0 {
		return
	}
	now := time.Now()
	s.mu.Lock()
	last := s.seq + uint64(len(evs))
	var call uint64
	if wait {
		call = last
	}
	for i := range evs {
		s.seq++
		evs[i].Seq = s.seq
		if evs[i].Time.IsZero() {
			evs[i].Time = now
		}
		s.queue = append(s.queue, pendingDelivery{ev: evs[i], subs: s.subs, call: call})
	}
	if s.dispatching {
		// Someone is draining the queue and will deliver our events in
		// order.
		for wait && s.delivered < last {
			s.cond.Wait()
		}
	} else {
		s.dispatching = true
		s.drainLocked()
		s.dispatching = false
	}
	later := s.later[call]
	if later != nil {
		delete(s.later, call)
	}
	s.mu.Unlock()
	for _, fn := range later {
		fn()
	}
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
		o := Origin{s, d.call}
		for _, sub := range d.subs {
			sub.fn(d.ev, o)
		}
		s.mu.Lock()
		s.delivered = d.ev.Seq
		s.cond.Broadcast()
	}
}
