package events

import (
	"sync"

	"repro/internal/bindings"
	"repro/internal/xmltree"
)

// Matcher is the Atomic Event Matcher service core: a set of registered
// patterns evaluated against every published event. Safe for concurrent use.
//
// Registrations are indexed by the name of their pattern's root element — a
// pattern only ever matches an event with that name — so OnEvent costs one
// lookup plus the patterns registered for the event's own name, however
// many registrations there are for other names.
//
// Detection order: when several registrations match one event their sinks
// run in registration order. Registering a key again replaces the earlier
// registration and moves the key to the end of that order.
type Matcher struct {
	mu sync.RWMutex
	// byName holds one bucket per root element name, in registration
	// order. The elements of a bucket stored here are never written again:
	// Register appends behind them, Unregister stores a copy without the
	// removed one, and an emptied bucket's entry is deleted. OnEvent may
	// therefore iterate a bucket it read under the read lock after
	// releasing it.
	byName map[xmltree.Name][]registration
	byKey  map[string]xmltree.Name // key → name of the bucket holding it
}

type registration struct {
	key     string
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
	return &Matcher{
		byName: map[xmltree.Name][]registration{},
		byKey:  map[string]xmltree.Name{},
	}
}

// Register adds a pattern under a key (replacing any previous registration
// with that key); sink is called for each matching event.
func (m *Matcher) Register(key string, p *Pattern, sink func(Detection)) {
	name := p.Name()
	m.mu.Lock()
	defer m.mu.Unlock()
	if old, ok := m.byKey[key]; ok {
		m.removeLocked(key, old)
	}
	m.byKey[key] = name
	m.byName[name] = append(m.byName[name], registration{key, p, sink})
}

// Unregister removes a registration and reports whether it existed.
func (m *Matcher) Unregister(key string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	name, ok := m.byKey[key]
	if ok {
		m.removeLocked(key, name)
		delete(m.byKey, key)
	}
	return ok
}

// removeLocked replaces key's bucket by a copy without it, or drops the
// bucket when key was its last registration. Caller holds m.mu.
func (m *Matcher) removeLocked(key string, name xmltree.Name) {
	bucket := m.byName[name]
	if len(bucket) == 1 {
		delete(m.byName, name)
		return
	}
	rest := make([]registration, 0, len(bucket)-1)
	for _, r := range bucket {
		if r.key != key {
			rest = append(rest, r)
		}
	}
	m.byName[name] = rest
}

// Len returns the number of registrations.
func (m *Matcher) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.byKey)
}

// OnEvent matches the patterns registered for the event's name against the
// event, delivering a Detection per matching registration, in registration
// order. It is the handler to subscribe to a Stream. Sinks run with no lock
// held, so a sink may register and unregister; a registration removed while
// an event is being matched may still receive that event.
func (m *Matcher) OnEvent(ev Event) {
	if ev.Payload == nil {
		return
	}
	m.mu.RLock()
	bucket := m.byName[ev.Payload.Name]
	m.mu.RUnlock()
	for i := range bucket {
		r := &bucket[i]
		if ts := r.pattern.Match(ev); len(ts) > 0 {
			r.sink(Detection{Key: r.key, Bindings: ts, Event: ev})
		}
	}
}
