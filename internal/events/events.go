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
	// subs holds the live subscribers, ascending id = subscription order.
	// It is copy-on-write: Subscribe and cancel store a new slice and never
	// write to a stored one, so queued deliveries share it as their
	// subscriber snapshot.
	subs []subscriber
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
	ev   Event
	subs []subscriber // s.subs as of sequencing; shared, read-only
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
	for i := range evs {
		s.seq++
		evs[i].Seq = s.seq
		if evs[i].Time.IsZero() {
			evs[i].Time = now
		}
		s.queue = append(s.queue, pendingDelivery{ev: evs[i], subs: s.subs})
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
		for _, sub := range d.subs {
			sub.fn(d.ev)
		}
		s.mu.Lock()
		s.delivered = d.ev.Seq
		s.cond.Broadcast()
	}
}
