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
	// Names are the event names the detector listens to: at least one.
	Names []xmltree.Name
	// Feed processes one event.
	Feed func(Event)
	// Advance, when not nil, moves the detector's clock on every event of
	// its tenant; seq is the stream position emitted occurrences are
	// attributed to.
	Advance func(now time.Time, seq uint64)
}

// Matcher is the name index every event detector is registered in: the
// Atomic Event Matcher service core of Section 4.2, and the registry of the
// detection host. Safe for concurrent use.
//
// Registrations are indexed by (tenant, event name) — a pattern only ever
// matches an event with its root element's name, and a rule only ever sees
// its own tenant's events — so OnEvent costs one lookup plus the
// registrations for the event's tenant and name, however many there are
// for others. Keys are scoped by tenant: two tenants may use the same key.
//
// Detection order: an event first advances its tenant's registrations that
// have an Advance, so timer occurrences due by the event come before its
// detections, then feeds its name bucket; both in registration order.
// Registering a key again replaces the earlier registration and moves the
// key to the end of that order.
type Matcher struct {
	mu sync.RWMutex
	// byName holds one bucket per (tenant, event name), in registration
	// order. The elements of a bucket stored here — and of timed — are
	// never written again: Add appends behind them, removal stores a copy
	// without the removed one, and an emptied bucket's entry is deleted.
	// OnEvent and Advance may therefore iterate a slice read under the read
	// lock after releasing it.
	byName map[nameKey][]registration
	timed  map[string][]registration // tenant → registrations with an Advance
	byKey  map[regKey]Detector       // (tenant, key) → its registration's detector
}

type nameKey struct {
	tenant string
	name   xmltree.Name
}

type regKey struct{ tenant, key string }

type registration struct {
	key     string
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
		byName: map[nameKey][]registration{},
		timed:  map[string][]registration{},
		byKey:  map[regKey]Detector{},
	}
}

// Register adds a pattern under a default-tenant key (replacing any previous
// registration with that key); sink is called for each matching event.
func (m *Matcher) Register(key string, p *Pattern, sink func(Detection)) {
	m.Add("", key, Detector{Names: []xmltree.Name{p.Name()}, Feed: func(ev Event) {
		if ts := p.Match(ev); len(ts) > 0 {
			sink(Detection{Key: key, Bindings: ts, Event: ev})
		}
	}})
}

// Add registers a detector under a tenant's key, replacing any previous
// registration with that key in that tenant.
func (m *Matcher) Add(tenant, key string, d Detector) {
	m.mu.Lock()
	defer m.mu.Unlock()
	rk := regKey{tenant, key}
	if old, ok := m.byKey[rk]; ok {
		m.removeLocked(rk, old)
	}
	r := registration{key, d.Feed, d.Advance}
	m.byKey[rk] = d
	for _, name := range d.Names {
		nk := nameKey{tenant, name}
		if b := m.byName[nk]; len(b) == 0 || b[len(b)-1].key != key { // a name listed twice
			m.byName[nk] = append(b, r)
		}
	}
	if d.Advance != nil {
		m.timed[tenant] = append(m.timed[tenant], r)
	}
}

// Unregister removes a tenant's registration and reports whether it
// existed.
func (m *Matcher) Unregister(tenant, key string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	rk := regKey{tenant, key}
	d, ok := m.byKey[rk]
	if ok {
		m.removeLocked(rk, d)
	}
	return ok
}

// removeLocked drops rk's registration of d from every slice holding it.
// Caller holds m.mu.
func (m *Matcher) removeLocked(rk regKey, d Detector) {
	delete(m.byKey, rk)
	for _, name := range d.Names {
		nk := nameKey{rk.tenant, name}
		if b := without(m.byName[nk], rk.key); b != nil {
			m.byName[nk] = b
		} else {
			delete(m.byName, nk)
		}
	}
	if d.Advance != nil {
		if t := without(m.timed[rk.tenant], rk.key); t != nil {
			m.timed[rk.tenant] = t
		} else {
			delete(m.timed, rk.tenant)
		}
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

// Len returns the number of registrations, over all tenants.
func (m *Matcher) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.byKey)
}

// OnEvent advances the event's tenant's clocks to it, then feeds it to the
// tenant's registrations for its name. It is the handler to subscribe to a
// Stream. Detectors run with no lock held, so they may register and
// unregister; a registration removed while an event is being fed may still
// receive that event.
func (m *Matcher) OnEvent(ev Event) {
	m.mu.RLock()
	timed := m.timed[ev.Tenant]
	var bucket []registration
	if ev.Payload != nil {
		bucket = m.byName[nameKey{ev.Tenant, ev.Payload.Name}]
	}
	m.mu.RUnlock()
	for _, r := range timed {
		r.advance(ev.Time, ev.Seq)
	}
	for _, r := range bucket {
		r.feed(ev)
	}
}

// Advance moves the clock of every registration with an Advance, tenant by
// tenant, in registration order within a tenant.
func (m *Matcher) Advance(now time.Time, seq uint64) {
	m.mu.RLock()
	var timed []registration
	for _, regs := range m.timed {
		timed = append(timed, regs...)
	}
	m.mu.RUnlock()
	for _, r := range timed {
		r.advance(now, seq)
	}
}
