package events

import (
	"slices"
	"sync"
	"time"

	"repro/internal/bindings"
	"repro/internal/xmltree"
)

// A Language is what an event component language supplies to the detection
// host: compile one event component expression into a Detector whose
// detections go to emit. Everything else — subscription, registry,
// partitioning, tenant scoping, answers and their delivery — is the host's.
type Language func(expr *xmltree.Node, emit Emit) (Detector, error)

// Emit reports one detection: one result row per tuple, each row carrying
// the payloads of the constituent events.
type Emit func(tuples []bindings.Tuple, constituents []Event)

// Detector is one compiled event component.
type Detector struct {
	// Names are the event names the detector listens to; none means every
	// event.
	Names []xmltree.Name
	// Feed processes one event.
	Feed func(Event)
	// Advance, when not nil, moves the detector's clock without an event;
	// seq is the stream position emitted occurrences are attributed to.
	Advance func(now time.Time, seq uint64)
}

// Matcher is the name index every event detector is registered in: the
// Atomic Event Matcher service core of Section 4.2, and the registry of the
// detection host. Safe for concurrent use.
//
// Registrations are indexed by the event names they listen to — a pattern
// only ever matches an event with its root element's name — so OnEvent costs
// one lookup plus the registrations for the event's own name, however many
// registrations there are for other names. A registration without names
// listens to every event (the every-event tier) and is fed every event.
//
// Detection order: when several registrations receive one event they are fed
// in registration order, the name bucket and the every-event tier merged.
// Registering a key again replaces the earlier registration and moves the
// key to the end of that order.
type Matcher struct {
	mu sync.RWMutex
	// byName holds one bucket per event name, in registration order. The
	// elements of a bucket stored here — and of every and timed — are never
	// written again: Add appends behind them, removal stores a copy without
	// the removed one, and an emptied bucket's entry is deleted. OnEvent and
	// Advance may therefore iterate a slice they read under the read lock
	// after releasing it.
	byName map[xmltree.Name][]registration
	every  []registration      // the every-event tier
	timed  []registration      // registrations with an Advance
	byKey  map[string]Detector // key → its registration's detector
	next   uint64              // order stamp of the latest registration
}

type registration struct {
	key     string
	order   uint64 // increases with registration time
	feed    func(Event)
	advance func(time.Time, uint64)
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
	return &Matcher{
		byName: map[xmltree.Name][]registration{},
		byKey:  map[string]Detector{},
	}
}

// Register adds a pattern under a key (replacing any previous registration
// with that key); sink is called for each matching event.
func (m *Matcher) Register(key string, p *Pattern, sink func(Detection)) {
	m.Add(key, Detector{Names: []xmltree.Name{p.Name()}, Feed: func(ev Event) {
		if ts := p.Match(ev); len(ts) > 0 {
			sink(Detection{Key: key, Bindings: ts, Event: ev})
		}
	}})
}

// Add registers a detector under a key, replacing any previous registration
// with that key.
func (m *Matcher) Add(key string, d Detector) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if old, ok := m.byKey[key]; ok {
		m.removeLocked(key, old)
	}
	m.next++
	r := registration{key, m.next, d.Feed, d.Advance}
	m.byKey[key] = d
	if len(d.Names) == 0 {
		m.every = append(m.every, r)
	}
	for _, name := range d.Names {
		if b := m.byName[name]; len(b) == 0 || b[len(b)-1].key != key { // a name listed twice
			m.byName[name] = append(b, r)
		}
	}
	if d.Advance != nil {
		m.timed = append(m.timed, r)
	}
}

// Unregister removes a registration and reports whether it existed.
func (m *Matcher) Unregister(key string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	d, ok := m.byKey[key]
	if ok {
		m.removeLocked(key, d)
	}
	return ok
}

// removeLocked drops key's registration of d from every slice holding it.
// Caller holds m.mu.
func (m *Matcher) removeLocked(key string, d Detector) {
	delete(m.byKey, key)
	if len(d.Names) == 0 {
		m.every = without(m.every, key)
	}
	for _, name := range d.Names {
		if b := without(m.byName[name], key); b != nil {
			m.byName[name] = b
		} else {
			delete(m.byName, name)
		}
	}
	if d.Advance != nil {
		m.timed = without(m.timed, key)
	}
}

// without returns regs without key's registration: regs itself when key is
// absent, nil when nothing is left, else a copy.
func without(regs []registration, key string) []registration {
	i := slices.IndexFunc(regs, func(r registration) bool { return r.key == key })
	switch {
	case i < 0:
		return regs
	case len(regs) == 1:
		return nil
	}
	rest := make([]registration, 0, len(regs)-1)
	return append(append(rest, regs[:i]...), regs[i+1:]...)
}

// Len returns the number of registrations.
func (m *Matcher) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.byKey)
}

// OnEvent feeds the event to the registrations for its name and to the
// every-event tier, in registration order. It is the handler to subscribe to
// a Stream. Detectors run with no lock held, so they may register and
// unregister; a registration removed while an event is being fed may still
// receive that event.
func (m *Matcher) OnEvent(ev Event) {
	m.mu.RLock()
	var bucket []registration
	if ev.Payload != nil {
		bucket = m.byName[ev.Payload.Name]
	}
	every := m.every
	m.mu.RUnlock()
	for len(bucket) > 0 || len(every) > 0 {
		if len(every) == 0 || len(bucket) > 0 && bucket[0].order < every[0].order {
			bucket[0].feed(ev)
			bucket = bucket[1:]
		} else {
			every[0].feed(ev)
			every = every[1:]
		}
	}
}

// Advance moves the clock of every registration with an Advance, in
// registration order.
func (m *Matcher) Advance(now time.Time, seq uint64) {
	m.mu.RLock()
	timed := m.timed
	m.mu.RUnlock()
	for _, r := range timed {
		r.advance(now, seq)
	}
}
