// Package snoop implements the SNOOP composite event algebra of
// Chakravarthy et al. (VLDB 1994) extended with logical variables, the
// composite event component language the paper plugs into the ECA framework
// (Section 4.2, [CKAK94], [Spa06]).
//
// Operators: disjunction (Or), conjunction (And), sequence (Seq), Any(m, …),
// negation Not(E2)[E1, E3], aperiodic A(E1, E2, E3) and periodic
// P(E1, t, E3). Detection follows the event-graph approach: primitive
// occurrences enter at Atomic leaves and propagate upward; operator nodes
// keep initiator state and combine occurrences under one of the SNOOP
// parameter contexts (Unrestricted, Recent, Chronicle, Continuous,
// Cumulative).
//
// The logical-variable extension: every occurrence carries a tuple of
// variable bindings; combining operators join tuples and drop incompatible
// combinations, so a variable occurring in several constituent patterns acts
// as a join variable across the composite event. Operators index their
// initiator state by the join variables both operands always bind, so a
// terminator only meets the initiators that can join it.
package snoop

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/bindings"
	"repro/internal/events"
	"repro/internal/obs"
	"repro/internal/xmltree"
)

// ParamContext selects the SNOOP parameter context, which determines how
// initiator occurrences pair with terminators.
type ParamContext int

// The parameter contexts of [CKAK94].
const (
	// Unrestricted pairs every initiator with every terminator.
	Unrestricted ParamContext = iota
	// Recent pairs only the most recent initiator; older ones are dropped.
	Recent
	// Chronicle pairs the oldest initiator and consumes it (FIFO).
	Chronicle
	// Continuous lets every initiator start a window that the first
	// following terminator closes: on a terminator, all stored initiators
	// pair and are consumed.
	Continuous
	// Cumulative accumulates all initiators and emits one occurrence per
	// terminator combining them all, then resets.
	Cumulative
)

var contextNames = map[string]ParamContext{
	"unrestricted": Unrestricted,
	"recent":       Recent,
	"chronicle":    Chronicle,
	"continuous":   Continuous,
	"cumulative":   Cumulative,
}

// ParseContext resolves a context name ("recent", "chronicle", …).
func ParseContext(s string) (ParamContext, error) {
	c, ok := contextNames[strings.ToLower(s)]
	if !ok {
		return 0, fmt.Errorf("snoop: unknown parameter context %.64q", s)
	}
	return c, nil
}

// String returns the lower-case context name.
func (c ParamContext) String() string {
	for n, v := range contextNames {
		if v == c {
			return n
		}
	}
	return fmt.Sprintf("ParamContext(%d)", int(c))
}

// Occurrence is one (composite) event occurrence: the interval it spans in
// the stream, the time it ended (a periodic window opens there), its
// variable bindings, and the primitive constituents. The constituents keep
// their payloads and stamps, which a detection answer carries; nothing
// reads the time an occurrence started, so it is not kept.
type Occurrence struct {
	Start, End   uint64
	EndTime      time.Time
	Bindings     bindings.Tuple
	Constituents []events.Event
}

func (o Occurrence) String() string {
	return fmt.Sprintf("[%d,%d]%s", o.Start, o.End, o.Bindings)
}

// merge combines two occurrences into one spanning both; the bindings must
// already be known compatible.
func merge(a, b Occurrence) Occurrence {
	out := Occurrence{
		Start:    a.Start,
		End:      a.End,
		EndTime:  a.EndTime,
		Bindings: a.Bindings.Merge(b.Bindings),
	}
	if b.Start < a.Start {
		out.Start = b.Start
	}
	if b.End > a.End {
		out.End, out.EndTime = b.End, b.EndTime
	}
	out.Constituents = append(append([]events.Event{}, a.Constituents...), b.Constituents...)
	return out
}

// --- expression AST ----------------------------------------------------------------

// Expr is a composite event expression.
type Expr interface {
	// node builds the detector node for this expression. Operators key
	// their stores by the variables their operands both always bind
	// (Bound).
	node(d *Detector) node
	// String renders the expression in algebra syntax.
	String() string
}

// Atomic matches primitive events against an atomic event pattern.
type Atomic struct{ Pattern *events.Pattern }

// Or is disjunction: E1 ∨ E2 occurs when either occurs.
type Or struct{ L, R Expr }

// And is conjunction: E1 ∧ E2 occurs when both have occurred, in any order.
type And struct{ L, R Expr }

// Seq is sequence: E1 ; E2 occurs when E2 starts after E1 has ended.
type Seq struct{ L, R Expr }

// Any occurs when M of the child expressions have occurred (each child
// counted once).
type Any struct {
	M        int
	Children []Expr
}

// Not is negation: Not(Guarded)[Begin, End] occurs at an End occurrence
// following a Begin occurrence with no compatible Guarded occurrence
// strictly inside the interval.
type Not struct{ Begin, Guarded, End Expr }

// Aperiodic is A(Begin, Mid, End): every Mid occurrence inside an open
// [Begin, End) window is signalled.
type Aperiodic struct{ Begin, Mid, End Expr }

// AperiodicStar is A*(Begin, Mid, End), the cumulative variant of the
// aperiodic operator in [CKAK94]: Mid occurrences inside an open
// [Begin, End) window are accumulated silently and signalled as ONE
// occurrence when the window's terminator arrives (windows with no Mid
// occurrence signal nothing).
type AperiodicStar struct{ Begin, Mid, End Expr }

// Periodic is P(Begin, Interval, End): after Begin, an occurrence is
// signalled every Interval until End. Time advances with the timestamps of
// fed events (and explicit Detector.Advance calls). Validate rejects an
// Interval below minPeriodicInterval.
type Periodic struct {
	Begin    Expr
	Interval time.Duration
	End      Expr
}

// minPeriodicInterval is the shortest Periodic interval: one event that
// moves the clock by t emits t/Interval occurrences, so a 1ns interval
// would emit a billion per second of stream time.
const minPeriodicInterval = time.Millisecond

func (e *Atomic) String() string { return e.Pattern.Name().String() }
func (e *Or) String() string     { return "(" + e.L.String() + " ∨ " + e.R.String() + ")" }
func (e *And) String() string    { return "(" + e.L.String() + " ∧ " + e.R.String() + ")" }
func (e *Seq) String() string    { return "(" + e.L.String() + " ; " + e.R.String() + ")" }
func (e *Any) String() string {
	parts := make([]string, len(e.Children))
	for i, c := range e.Children {
		parts[i] = c.String()
	}
	return fmt.Sprintf("ANY(%d, %s)", e.M, strings.Join(parts, ", "))
}
func (e *Not) String() string {
	return fmt.Sprintf("NOT(%s)[%s, %s]", e.Guarded.String(), e.Begin.String(), e.End.String())
}
func (e *Aperiodic) String() string {
	return fmt.Sprintf("A(%s, %s, %s)", e.Begin.String(), e.Mid.String(), e.End.String())
}
func (e *AperiodicStar) String() string {
	return fmt.Sprintf("A*(%s, %s, %s)", e.Begin.String(), e.Mid.String(), e.End.String())
}
func (e *Periodic) String() string {
	return fmt.Sprintf("P(%s, %s, %s)", e.Begin.String(), e.Interval, e.End.String())
}

// Validate checks structural well-formedness of an expression.
func Validate(e Expr) error {
	switch x := e.(type) {
	case *Atomic:
		if x.Pattern == nil {
			return fmt.Errorf("snoop: atomic expression without pattern")
		}
	case *Any:
		if x.M < 1 || x.M > len(x.Children) {
			return fmt.Errorf("snoop: ANY(%d) over %d children", x.M, len(x.Children))
		}
	case *Periodic:
		if x.Interval < minPeriodicInterval {
			return fmt.Errorf("snoop: periodic interval %v is below the %v floor", x.Interval, minPeriodicInterval)
		}
	case *Or, *And, *Seq, *Not, *Aperiodic, *AperiodicStar:
	default:
		return fmt.Errorf("snoop: unknown expression %T", e)
	}
	for _, c := range operands(e) {
		if err := Validate(c); err != nil {
			return err
		}
	}
	return nil
}

// --- detector ----------------------------------------------------------------------

// Detector evaluates one composite event expression against a stream of
// primitive events. Feed it events in stream order; detected composite
// occurrences are delivered synchronously to the sink. Not safe for
// concurrent use: feed it from one goroutine at a time (the detection host
// feeds it from the partition it is pinned to).
type Detector struct {
	root      node
	ctx       ParamContext
	sink      func(Occurrence)
	leaves    []*atomicNode
	clock     time.Time
	periodics []*periodicNode
	fed       *obs.Counter // snoop_events_total
	fired     *obs.Counter // snoop_occurrences_total
}

// NewDetector compiles the expression into a detector graph.
func NewDetector(e Expr, ctx ParamContext, sink func(Occurrence)) (*Detector, error) {
	if err := Validate(e); err != nil {
		return nil, err
	}
	d := &Detector{ctx: ctx, sink: sink}
	d.root = e.node(d)
	d.root.setParent(func(occs []Occurrence) {
		for _, o := range occs {
			d.fired.Inc()
			d.sink(o)
		}
	})
	return d, nil
}

// SetObs counts fed events (snoop_events_total) and detected composite
// occurrences (snoop_occurrences_total) on the hub's registry. Counters
// are shared by every detector instrumented with the same hub.
func (d *Detector) SetObs(h *obs.Hub) {
	r := h.Metrics()
	d.fed = r.Counter("snoop_events_total", "Primitive events fed to SNOOP detectors.")
	d.fired = r.Counter("snoop_occurrences_total", "Composite event occurrences detected by SNOOP detectors.")
}

// Feed processes one primitive event occurrence.
func (d *Detector) Feed(ev events.Event) {
	d.fed.Inc()
	if ev.Time.After(d.clock) {
		d.clock = ev.Time
	}
	// Fire periodic timers that elapsed strictly before this event.
	for _, p := range d.periodics {
		p.advance(d.clock, ev.Seq)
	}
	for _, leaf := range d.leaves {
		leaf.feed(ev)
	}
}

// Periodic reports whether the expression has a periodic operator, whose
// occurrences Advance fires.
func (d *Detector) Periodic() bool { return len(d.periodics) > 0 }

// Advance moves the detector clock forward (for Periodic expressions)
// without feeding an event; seq is the stream position the emitted
// occurrences are attributed to.
func (d *Detector) Advance(now time.Time, seq uint64) {
	if now.After(d.clock) {
		d.clock = now
	}
	for _, p := range d.periodics {
		p.advance(d.clock, seq)
	}
}

// node is one detector-graph node.
type node interface {
	setParent(emit func([]Occurrence))
}

// --- leaf -----------------------------------------------------------------------

type atomicNode struct {
	pattern *events.Pattern
	emit    func([]Occurrence)
}

func (e *Atomic) node(d *Detector) node {
	n := &atomicNode{pattern: e.Pattern}
	d.leaves = append(d.leaves, n)
	return n
}

func (n *atomicNode) setParent(emit func([]Occurrence)) { n.emit = emit }

func (n *atomicNode) feed(ev events.Event) {
	ts := n.pattern.Match(ev)
	if len(ts) == 0 {
		return
	}
	occs := make([]Occurrence, len(ts))
	for i, t := range ts {
		occs[i] = Occurrence{
			Start: ev.Seq, End: ev.Seq,
			EndTime:      ev.Time,
			Bindings:     t,
			Constituents: []events.Event{ev},
		}
	}
	n.emit(occs)
}

// --- or ------------------------------------------------------------------------

type orNode struct{ emit func([]Occurrence) }

func (e *Or) node(d *Detector) node {
	n := &orNode{}
	l := e.L.node(d)
	r := e.R.node(d)
	pass := func(occs []Occurrence) { n.emit(occs) }
	l.setParent(pass)
	r.setParent(pass)
	return n
}

func (n *orNode) setParent(emit func([]Occurrence)) { n.emit = emit }

// --- what an expression listens to and binds ------------------------------------

// Names returns the root names of e's leaf patterns, in leaf order: the
// only events a detector of e can detect anything from.
func Names(e Expr) []xmltree.Name {
	var names []xmltree.Name
	var walk func(e Expr)
	walk = func(e Expr) {
		if a, ok := e.(*Atomic); ok {
			names = append(names, a.Pattern.Name())
			return
		}
		for _, c := range operands(e) {
			walk(c)
		}
	}
	walk(e)
	return names
}

// Bound returns e's always-bound variables, sorted: the variables every
// occurrence of e binds. A variable bound in one branch of an Or, or in
// fewer than all children of an Any, is not among them; a Not's guarded
// events and an A*'s middles contribute none.
func Bound(e Expr) []string {
	switch x := e.(type) {
	case *Atomic:
		return x.Pattern.Binds()
	case *Or:
		return intersect(Bound(x.L), Bound(x.R))
	case *And:
		return union(Bound(x.L), Bound(x.R))
	case *Seq:
		return union(Bound(x.L), Bound(x.R))
	case *Any:
		var bound []string
		for i, c := range x.Children {
			if i == 0 {
				bound = Bound(c)
			} else {
				bound = intersect(bound, Bound(c))
			}
		}
		return bound
	case *Not:
		return union(Bound(x.Begin), Bound(x.End))
	case *Aperiodic:
		return union(Bound(x.Begin), Bound(x.Mid))
	case *AperiodicStar:
		return union(Bound(x.Begin), Bound(x.End))
	case *Periodic:
		return Bound(x.Begin)
	}
	return nil
}

// operands returns an operator's operand expressions, in detector leaf
// order; none for an Atomic.
func operands(e Expr) []Expr {
	switch x := e.(type) {
	case *Or:
		return []Expr{x.L, x.R}
	case *And:
		return []Expr{x.L, x.R}
	case *Seq:
		return []Expr{x.L, x.R}
	case *Any:
		return x.Children
	case *Not:
		return []Expr{x.Begin, x.Guarded, x.End}
	case *Aperiodic:
		return []Expr{x.Begin, x.Mid, x.End}
	case *AperiodicStar:
		return []Expr{x.Begin, x.Mid, x.End}
	case *Periodic:
		return []Expr{x.Begin, x.End}
	}
	return nil
}

// union and intersect combine sorted variable sets into new sorted sets.
func union(a, b []string) []string {
	u := append(append([]string(nil), a...), b...)
	sort.Strings(u)
	return slices.Compact(u)
}

func intersect(a, b []string) []string {
	var out []string
	for _, v := range a {
		if slices.Contains(b, v) {
			out = append(out, v)
		}
	}
	return out
}

// --- pending-occurrence store ----------------------------------------------------

// store keeps an operator's pending occurrences (initiators, open windows)
// under the detector's parameter context, in buckets keyed by the values of
// the store's key variables: variables that every stored occurrence and
// every probing occurrence bind. Value.Equal implies equal Value.Key, so
// every stored occurrence compatible with a probe sits in the probe's
// bucket, and each operation walks that bucket alone, oldest first. The
// full compatibility check still runs inside the bucket: XML values with
// equal keys can differ. With no key variables every occurrence shares the
// bucket "". An emptied bucket is deleted.
type store struct {
	ctx     ParamContext
	vars    []string
	buckets map[string]*bucket
	key     []byte // scratch for the probe's key
}

type bucket struct {
	key  string
	occs []Occurrence // insertion order
}

func newStore(ctx ParamContext, vars []string) *store {
	return &store{ctx: ctx, vars: vars, buckets: map[string]*bucket{}}
}

// find returns the bucket t's key values select, or nil, leaving the key in
// s.key.
func (s *store) find(t bindings.Tuple) *bucket {
	s.key = s.key[:0]
	for i, v := range s.vars {
		if i > 0 {
			s.key = append(s.key, '\x01')
		}
		s.key = t[v].AppendKey(s.key)
	}
	return s.buckets[string(s.key)] // no-alloc probe
}

// add stores an occurrence; under Recent it replaces the one stored.
func (s *store) add(o Occurrence) {
	if s.ctx == Recent {
		clear(s.buckets)
	}
	b := s.find(o.Bindings)
	if b == nil {
		b = &bucket{key: string(s.key)}
		s.buckets[b.key] = b
	}
	b.occs = append(b.occs, o)
}

// lookup returns the stored occurrences in t's bucket, oldest first. The
// slice is the store's; callers must not modify it.
func (s *store) lookup(t bindings.Tuple) []Occurrence {
	if b := s.find(t); b != nil {
		return b.occs
	}
	return nil
}

// pair combines a terminator occurrence with stored initiators according to
// the context, returning the emitted occurrences. ok filters admissible
// pairs (ordering for Seq, binding compatibility everywhere).
func (s *store) pair(term Occurrence, ok func(init Occurrence) bool) []Occurrence {
	b := s.find(term.Bindings)
	if b == nil {
		return nil
	}
	var out []Occurrence
	switch s.ctx {
	case Unrestricted, Recent:
		for _, init := range b.occs {
			if ok(init) {
				out = append(out, merge(init, term))
			}
		}
	case Chronicle:
		for i, init := range b.occs {
			if ok(init) {
				out = append(out, merge(init, term))
				b.occs = slices.Delete(b.occs, i, i+1)
				break
			}
		}
	case Continuous:
		b.keep(func(init Occurrence) bool {
			if ok(init) {
				out = append(out, merge(init, term))
				return false
			}
			return true
		})
	case Cumulative:
		acc, matched := term, false
		b.keep(func(init Occurrence) bool {
			if ok(init) && init.Bindings.Compatible(acc.Bindings) {
				acc, matched = merge(init, acc), true
				return false
			}
			return true
		})
		if matched {
			out = append(out, acc)
		}
	}
	s.prune(b)
	return out
}

// drop removes every occurrence in term's bucket that ok admits.
func (s *store) drop(term Occurrence, ok func(init Occurrence) bool) {
	if b := s.find(term.Bindings); b != nil {
		b.keep(func(init Occurrence) bool { return !ok(init) })
		s.prune(b)
	}
}

func (s *store) prune(b *bucket) {
	if len(b.occs) == 0 {
		delete(s.buckets, b.key)
	}
}

// keep retains, in order, the occurrences for which f reports true; f sees
// each occurrence once, oldest first.
func (b *bucket) keep(f func(Occurrence) bool) {
	kept := b.occs[:0]
	for _, o := range b.occs {
		if f(o) {
			kept = append(kept, o)
		}
	}
	clear(b.occs[len(kept):])
	b.occs = kept
}

// --- binary initiator/terminator pairing (Seq, And) --------------------------------

type seqNode struct {
	emit  func([]Occurrence)
	store *store
}

func (e *Seq) node(d *Detector) node {
	l := e.L.node(d)
	r := e.R.node(d)
	n := &seqNode{store: newStore(d.ctx, intersect(Bound(e.L), Bound(e.R)))}
	l.setParent(func(occs []Occurrence) {
		for _, o := range occs {
			n.store.add(o)
		}
	})
	r.setParent(func(occs []Occurrence) {
		var out []Occurrence
		for _, term := range occs {
			out = append(out, n.store.pair(term, func(init Occurrence) bool {
				return init.End < term.Start && init.Bindings.Compatible(term.Bindings)
			})...)
		}
		if len(out) > 0 {
			n.emit(out)
		}
	})
	return n
}

func (n *seqNode) setParent(emit func([]Occurrence)) { n.emit = emit }

type andNode struct {
	emit func([]Occurrence)
	l, r *store
}

func (e *And) node(d *Detector) node {
	l := e.L.node(d)
	r := e.R.node(d)
	shared := intersect(Bound(e.L), Bound(e.R))
	n := &andNode{l: newStore(d.ctx, shared), r: newStore(d.ctx, shared)}
	// An occurrence of either side pairs with the other side's stored ones
	// and is then stored as an initiator itself.
	side := func(mine, other *store) func([]Occurrence) {
		return func(occs []Occurrence) {
			var out []Occurrence
			for _, o := range occs {
				out = append(out, other.pair(o, func(init Occurrence) bool {
					return init.Bindings.Compatible(o.Bindings)
				})...)
				mine.add(o)
			}
			if len(out) > 0 {
				n.emit(out)
			}
		}
	}
	l.setParent(side(n.l, n.r))
	r.setParent(side(n.r, n.l))
	return n
}

func (n *andNode) setParent(emit func([]Occurrence)) { n.emit = emit }

// --- any ----------------------------------------------------------------------

type anyNode struct {
	emit   func([]Occurrence)
	m      int
	stores []*store
}

func (e *Any) node(d *Detector) node {
	n := &anyNode{m: e.M}
	kids := make([]node, len(e.Children))
	for i, c := range e.Children {
		kids[i] = c.node(d)
	}
	bound := Bound(e)
	for i, cn := range kids {
		idx := i
		n.stores = append(n.stores, newStore(d.ctx, bound))
		cn.setParent(func(occs []Occurrence) {
			var out []Occurrence
			for _, o := range occs {
				out = append(out, n.combine(idx, o)...)
				n.stores[idx].add(o)
			}
			if len(out) > 0 {
				n.emit(out)
			}
		})
	}
	return n
}

func (n *anyNode) setParent(emit func([]Occurrence)) { n.emit = emit }

// combine builds occurrences using the new occurrence o from child idx plus
// m-1 stored occurrences from distinct other children (most recent
// compatible occurrence per child).
func (n *anyNode) combine(idx int, o Occurrence) []Occurrence {
	if n.m == 1 {
		return []Occurrence{o}
	}
	// Candidate children ordered by recency of their latest occurrence.
	type cand struct {
		child int
		occ   Occurrence
	}
	var cands []cand
	for i, s := range n.stores {
		if i == idx {
			continue
		}
		occs := s.lookup(o.Bindings)
		for j := len(occs) - 1; j >= 0; j-- {
			if occs[j].Bindings.Compatible(o.Bindings) {
				cands = append(cands, cand{i, occs[j]})
				break
			}
		}
	}
	if len(cands) < n.m-1 {
		return nil
	}
	sort.Slice(cands, func(a, b int) bool { return cands[a].occ.End > cands[b].occ.End })
	acc := o
	for i := 0; i < n.m-1; i++ {
		if !cands[i].occ.Bindings.Compatible(acc.Bindings) {
			return nil
		}
		acc = merge(acc, cands[i].occ)
	}
	return []Occurrence{acc}
}

// --- not ---------------------------------------------------------------------

type notNode struct {
	emit    func([]Occurrence)
	inits   *store
	guarded []Occurrence
}

func (e *Not) node(d *Detector) node {
	b := e.Begin.node(d)
	g := e.Guarded.node(d)
	t := e.End.node(d)
	n := &notNode{inits: newStore(d.ctx, intersect(Bound(e.Begin), Bound(e.End)))}
	b.setParent(func(occs []Occurrence) {
		for _, o := range occs {
			n.inits.add(o)
		}
	})
	g.setParent(func(occs []Occurrence) {
		n.guarded = append(n.guarded, occs...)
	})
	t.setParent(func(occs []Occurrence) {
		var out []Occurrence
		for _, term := range occs {
			out = append(out, n.inits.pair(term, func(init Occurrence) bool {
				if init.End >= term.Start || !init.Bindings.Compatible(term.Bindings) {
					return false
				}
				joined := init.Bindings.Merge(term.Bindings)
				for _, gu := range n.guarded {
					if gu.Start > init.End && gu.End < term.Start && gu.Bindings.Compatible(joined) {
						return false
					}
				}
				return true
			})...)
		}
		if len(out) > 0 {
			n.emit(out)
		}
	})
	return n
}

func (n *notNode) setParent(emit func([]Occurrence)) { n.emit = emit }

// --- aperiodic ------------------------------------------------------------------

type aperiodicNode struct {
	emit func([]Occurrence)
	open *store
}

func (e *Aperiodic) node(d *Detector) node {
	b := e.Begin.node(d)
	m := e.Mid.node(d)
	t := e.End.node(d)
	// Mids and terminators both probe the open windows.
	n := &aperiodicNode{open: newStore(d.ctx, intersect(intersect(Bound(e.Begin), Bound(e.Mid)), Bound(e.End)))}
	b.setParent(func(occs []Occurrence) {
		for _, o := range occs {
			n.open.add(o)
		}
	})
	m.setParent(func(occs []Occurrence) {
		var out []Occurrence
		for _, mid := range occs {
			// Signal mid inside every open window; windows stay open.
			for _, init := range n.open.lookup(mid.Bindings) {
				if init.End < mid.Start && init.Bindings.Compatible(mid.Bindings) {
					out = append(out, merge(init, mid))
				}
			}
		}
		if len(out) > 0 {
			n.emit(out)
		}
	})
	t.setParent(func(occs []Occurrence) {
		for _, term := range occs {
			// Terminators close windows per context; nothing is emitted.
			closes := func(init Occurrence) bool {
				return init.End < term.Start && init.Bindings.Compatible(term.Bindings)
			}
			if n.open.ctx == Unrestricted || n.open.ctx == Recent {
				// pair consumes nothing in these contexts.
				n.open.drop(term, closes)
			} else {
				n.open.pair(term, closes)
			}
		}
	})
	return n
}

func (n *aperiodicNode) setParent(emit func([]Occurrence)) { n.emit = emit }

// --- aperiodic* (cumulative) -----------------------------------------------------

type aperiodicStarNode struct {
	emit    func([]Occurrence)
	windows []starWindow
	ctx     ParamContext
}

type starWindow struct {
	init Occurrence
	mids []Occurrence
}

func (e *AperiodicStar) node(d *Detector) node {
	n := &aperiodicStarNode{ctx: d.ctx}
	b := e.Begin.node(d)
	m := e.Mid.node(d)
	t := e.End.node(d)
	b.setParent(func(occs []Occurrence) {
		for _, o := range occs {
			if n.ctx == Recent {
				n.windows = n.windows[:0]
			}
			n.windows = append(n.windows, starWindow{init: o})
		}
	})
	m.setParent(func(occs []Occurrence) {
		for _, mid := range occs {
			for i := range n.windows {
				w := &n.windows[i]
				if w.init.End < mid.Start && w.init.Bindings.Compatible(mid.Bindings) {
					w.mids = append(w.mids, mid)
				}
			}
		}
	})
	t.setParent(func(occs []Occurrence) {
		var out []Occurrence
		for _, term := range occs {
			var rest []starWindow
			for _, w := range n.windows {
				if !(w.init.End < term.Start && w.init.Bindings.Compatible(term.Bindings)) {
					rest = append(rest, w)
					continue
				}
				// Accumulate the binding-compatible mids into one
				// occurrence; windows with no mids signal nothing.
				if len(w.mids) > 0 {
					acc := merge(w.init, term)
					for _, mid := range w.mids {
						if mid.Bindings.Compatible(acc.Bindings) {
							acc = merge(acc, mid)
						}
					}
					out = append(out, acc)
				}
			}
			n.windows = rest
		}
		if len(out) > 0 {
			n.emit(out)
		}
	})
	return n
}

func (n *aperiodicStarNode) setParent(emit func([]Occurrence)) { n.emit = emit }

// --- periodic -------------------------------------------------------------------

type periodicNode struct {
	emit     func([]Occurrence)
	interval time.Duration
	// windows holds open periodic windows: initiator occurrence plus the
	// next due time.
	windows []periodicWindow
}

type periodicWindow struct {
	init Occurrence
	due  time.Time
}

func (e *Periodic) node(d *Detector) node {
	n := &periodicNode{interval: e.Interval}
	d.periodics = append(d.periodics, n)
	b := e.Begin.node(d)
	t := e.End.node(d)
	b.setParent(func(occs []Occurrence) {
		for _, o := range occs {
			n.windows = append(n.windows, periodicWindow{init: o, due: o.EndTime.Add(n.interval)})
		}
	})
	t.setParent(func(occs []Occurrence) {
		for _, term := range occs {
			var rest []periodicWindow
			for _, w := range n.windows {
				if !(w.init.End < term.Start && w.init.Bindings.Compatible(term.Bindings)) {
					rest = append(rest, w)
				}
			}
			n.windows = rest
		}
	})
	return n
}

func (n *periodicNode) setParent(emit func([]Occurrence)) { n.emit = emit }

// advance emits period occurrences due up to now.
func (n *periodicNode) advance(now time.Time, seq uint64) {
	var out []Occurrence
	for i := range n.windows {
		for !n.windows[i].due.After(now) {
			o := n.windows[i].init
			out = append(out, Occurrence{
				Start: o.Start, End: seq,
				EndTime:      n.windows[i].due,
				Bindings:     o.Bindings.Clone(),
				Constituents: o.Constituents,
			})
			n.windows[i].due = n.windows[i].due.Add(n.interval)
		}
	}
	if len(out) > 0 && n.emit != nil {
		n.emit(out)
	}
}
