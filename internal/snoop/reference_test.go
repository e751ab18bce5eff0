package snoop

import (
	"sort"
	"time"

	"repro/internal/events"
)

// This file keeps the scan-based detector the operators had before their
// initiator stores were keyed by shared variables: every terminator walks
// every pending initiator through Bindings.Compatible, Chronicle removal is
// a slice memmove, and the Aperiodic operator reads its open windows
// directly. It is the reference the keyed implementation is
// property-tested against (keyed_test.go), transcribed operator by operator
// and wired top-down instead of through setParent; leaves and periodic
// nodes are registered in the same order as NewDetector registers them, so
// an event matching several leaves reaches them in the same order.

type refDetector struct {
	ctx       ParamContext
	leaves    []func(events.Event)
	clock     time.Time
	periodics []*refPeriodic
}

func newRefDetector(e Expr, ctx ParamContext, sink func(Occurrence)) *refDetector {
	d := &refDetector{ctx: ctx}
	d.build(e, func(occs []Occurrence) {
		for _, o := range occs {
			sink(o)
		}
	})
	return d
}

func (d *refDetector) Feed(ev events.Event) {
	if ev.Time.After(d.clock) {
		d.clock = ev.Time
	}
	for _, p := range d.periodics {
		p.advance(d.clock, ev.Seq)
	}
	for _, leaf := range d.leaves {
		leaf(ev)
	}
}

func (d *refDetector) Advance(now time.Time, seq uint64) {
	if now.After(d.clock) {
		d.clock = now
	}
	for _, p := range d.periodics {
		p.advance(d.clock, seq)
	}
}

// build wires the reference graph for e, whose occurrences go to emit.
func (d *refDetector) build(e Expr, emit func([]Occurrence)) {
	switch x := e.(type) {
	case *Atomic:
		d.leaves = append(d.leaves, func(ev events.Event) {
			ts := x.Pattern.Match(ev)
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
			emit(asXML(occs)) // as testDetector does
		})
	case *Or:
		d.build(x.L, emit)
		d.build(x.R, emit)
	case *Seq:
		store := refPairStore{ctx: d.ctx}
		d.build(x.L, func(occs []Occurrence) {
			for _, o := range occs {
				store.add(o)
			}
		})
		d.build(x.R, func(occs []Occurrence) {
			var out []Occurrence
			for _, term := range occs {
				out = append(out, store.pair(term, func(init Occurrence) bool {
					return init.End < term.Start && init.Bindings.Compatible(term.Bindings)
				})...)
			}
			if len(out) > 0 {
				emit(out)
			}
		})
	case *And:
		l, r := refPairStore{ctx: d.ctx}, refPairStore{ctx: d.ctx}
		side := func(mine, other *refPairStore) func([]Occurrence) {
			return func(occs []Occurrence) {
				var out []Occurrence
				for _, o := range occs {
					out = append(out, other.pair(o, func(init Occurrence) bool {
						return init.Bindings.Compatible(o.Bindings)
					})...)
					mine.add(o)
				}
				if len(out) > 0 {
					emit(out)
				}
			}
		}
		d.build(x.L, side(&l, &r))
		d.build(x.R, side(&r, &l))
	case *Any:
		n := &refAny{m: x.M, stores: make([]refPairStore, len(x.Children))}
		for i := range n.stores {
			n.stores[i].ctx = d.ctx
		}
		for i, c := range x.Children {
			idx := i
			d.build(c, func(occs []Occurrence) {
				var out []Occurrence
				for _, o := range occs {
					out = append(out, n.combine(idx, o)...)
					n.stores[idx].add(o)
				}
				if len(out) > 0 {
					emit(out)
				}
			})
		}
	case *Not:
		inits := refPairStore{ctx: d.ctx}
		var guarded []Occurrence
		d.build(x.Begin, func(occs []Occurrence) {
			for _, o := range occs {
				inits.add(o)
			}
		})
		d.build(x.Guarded, func(occs []Occurrence) { guarded = append(guarded, occs...) })
		d.build(x.End, func(occs []Occurrence) {
			var out []Occurrence
			for _, term := range occs {
				out = append(out, inits.pair(term, func(init Occurrence) bool {
					if init.End >= term.Start || !init.Bindings.Compatible(term.Bindings) {
						return false
					}
					joined := init.Bindings.Merge(term.Bindings)
					for _, gu := range guarded {
						if gu.Start > init.End && gu.End < term.Start && gu.Bindings.Compatible(joined) {
							return false
						}
					}
					return true
				})...)
			}
			if len(out) > 0 {
				emit(out)
			}
		})
	case *Aperiodic:
		open := refPairStore{ctx: d.ctx}
		d.build(x.Begin, func(occs []Occurrence) {
			for _, o := range occs {
				open.add(o)
			}
		})
		d.build(x.Mid, func(occs []Occurrence) {
			var out []Occurrence
			for _, mid := range occs {
				for _, init := range open.occs {
					if init.End < mid.Start && init.Bindings.Compatible(mid.Bindings) {
						out = append(out, merge(init, mid))
					}
				}
			}
			if len(out) > 0 {
				emit(out)
			}
		})
		d.build(x.End, func(occs []Occurrence) {
			for _, term := range occs {
				open.pair(term, func(init Occurrence) bool {
					return init.End < term.Start && init.Bindings.Compatible(term.Bindings)
				})
				if open.ctx == Unrestricted || open.ctx == Recent {
					var rest []Occurrence
					for _, init := range open.occs {
						if !(init.End < term.Start && init.Bindings.Compatible(term.Bindings)) {
							rest = append(rest, init)
						}
					}
					open.occs = rest
				}
			}
		})
	case *AperiodicStar:
		type window struct {
			init Occurrence
			mids []Occurrence
		}
		var windows []window
		d.build(x.Begin, func(occs []Occurrence) {
			for _, o := range occs {
				if d.ctx == Recent {
					windows = windows[:0]
				}
				windows = append(windows, window{init: o})
			}
		})
		d.build(x.Mid, func(occs []Occurrence) {
			for _, mid := range occs {
				for i := range windows {
					w := &windows[i]
					if w.init.End < mid.Start && w.init.Bindings.Compatible(mid.Bindings) {
						w.mids = append(w.mids, mid)
					}
				}
			}
		})
		d.build(x.End, func(occs []Occurrence) {
			var out []Occurrence
			for _, term := range occs {
				var rest []window
				for _, w := range windows {
					if !(w.init.End < term.Start && w.init.Bindings.Compatible(term.Bindings)) {
						rest = append(rest, w)
						continue
					}
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
				windows = rest
			}
			if len(out) > 0 {
				emit(out)
			}
		})
	case *Periodic:
		n := &refPeriodic{interval: x.Interval, emit: emit}
		d.periodics = append(d.periodics, n)
		d.build(x.Begin, func(occs []Occurrence) {
			for _, o := range occs {
				n.windows = append(n.windows, periodicWindow{init: o, due: o.EndTime.Add(n.interval)})
			}
		})
		d.build(x.End, func(occs []Occurrence) {
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
	default:
		panic("reference detector: unknown expression")
	}
}

// refPairStore keeps initiator occurrences under a parameter context in
// one slice.
type refPairStore struct {
	ctx  ParamContext
	occs []Occurrence
}

func (s *refPairStore) add(o Occurrence) {
	if s.ctx == Recent {
		s.occs = s.occs[:0]
	}
	s.occs = append(s.occs, o)
}

func (s *refPairStore) pair(term Occurrence, ok func(init Occurrence) bool) []Occurrence {
	var out []Occurrence
	switch s.ctx {
	case Unrestricted, Recent:
		for _, init := range s.occs {
			if ok(init) {
				out = append(out, merge(init, term))
			}
		}
	case Chronicle:
		for i, init := range s.occs {
			if ok(init) {
				out = append(out, merge(init, term))
				s.occs = append(s.occs[:i], s.occs[i+1:]...)
				break
			}
		}
	case Continuous:
		var rest []Occurrence
		for _, init := range s.occs {
			if ok(init) {
				out = append(out, merge(init, term))
			} else {
				rest = append(rest, init)
			}
		}
		s.occs = rest
	case Cumulative:
		acc := term
		matched := false
		var rest []Occurrence
		for _, init := range s.occs {
			if ok(init) && init.Bindings.Compatible(acc.Bindings) {
				acc = merge(init, acc)
				matched = true
			} else {
				rest = append(rest, init)
			}
		}
		if matched {
			out = append(out, acc)
			s.occs = rest
		}
	}
	return out
}

type refAny struct {
	m      int
	stores []refPairStore
}

func (n *refAny) combine(idx int, o Occurrence) []Occurrence {
	if n.m == 1 {
		return []Occurrence{o}
	}
	type cand struct {
		child int
		occ   Occurrence
	}
	var cands []cand
	for i := range n.stores {
		if i == idx {
			continue
		}
		for j := len(n.stores[i].occs) - 1; j >= 0; j-- {
			if n.stores[i].occs[j].Bindings.Compatible(o.Bindings) {
				cands = append(cands, cand{i, n.stores[i].occs[j]})
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

type refPeriodic struct {
	emit     func([]Occurrence)
	interval time.Duration
	windows  []periodicWindow
}

func (n *refPeriodic) advance(now time.Time, seq uint64) {
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
	if len(out) > 0 {
		n.emit(out)
	}
}
