// Package winlang is a sliding-window counting event language — an event
// component language that is NOT part of the paper, implemented to
// demonstrate the framework's central claim: a new language plugs into the
// engine with a namespace URI and a compile and a build step (Language) run
// by the one detection host (services.DetectorHost) registered in the GRH
// under that URI, with no engine or GRH changes.
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
	"time"

	"repro/internal/bindings"
	"repro/internal/events"
	"repro/internal/xmltree"
)

// NS is the language's namespace URI; event components in this namespace
// are dispatched to the detection host running Language.
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
// concurrent use: feed it from one goroutine at a time (the detection host
// feeds it from the partition it is pinned to).
type Detector struct {
	expr *Expr
	sink func(Detection)
	// buckets groups pending matches by binding compatibility key. A bucket
	// is deleted when a detection consumes it or a sweep finds all its
	// matches expired.
	buckets map[string][]match
	// swept is the event time of the last sweep over every bucket.
	swept time.Time
}

type match struct {
	tuple bindings.Tuple
	event events.Event
}

// Language is the window language as the detection host runs it: Parse
// compiles a win:atleast expression, and its detector listens to the
// pattern's event name.
var Language = events.Language[*Expr]{
	Compile: Parse,
	Build: func(e *Expr, emit events.Emit) (events.Detector, error) {
		d := NewDetector(e, func(x Detection) { emit([]bindings.Tuple{x.Bindings}, x.Constituents) })
		return events.Detector{Names: e.Names(), Feed: d.Feed}, nil
	},
}

// Names returns the event name the expression listens to: its pattern's.
func (e *Expr) Names() []xmltree.Name { return e.Pattern.Names() }

// Binds returns the variables every detection binds: its pattern's.
func (e *Expr) Binds() []string { return e.Pattern.Binds() }

// NewDetector builds a detector delivering to sink.
func NewDetector(e *Expr, sink func(Detection)) *Detector {
	return &Detector{expr: e, sink: sink, buckets: map[string][]match{}}
}

// Feed processes one event. At most once per Within of event time it also
// sweeps every bucket, so a key that never recurs does not keep its
// expired matches forever. A match outlives at most one sweep, so sweeping
// costs amortised O(1) per event.
func (d *Detector) Feed(ev events.Event) {
	cutoff := ev.Time.Add(-d.expr.Within)
	if ev.Time.Sub(d.swept) >= d.expr.Within {
		for key, ms := range d.buckets {
			if kept := live(ms, cutoff); len(kept) > 0 {
				d.buckets[key] = kept
			} else {
				delete(d.buckets, key)
			}
		}
		d.swept = ev.Time
	}
	tuples := d.expr.Pattern.Match(ev)
	for _, t := range tuples {
		key := bucketKey(t)
		kept := append(live(d.buckets[key], cutoff), match{t, ev})
		if len(kept) >= d.expr.N {
			det := Detection{Bindings: bindings.Tuple{}}
			for _, m := range kept {
				det.Bindings = det.Bindings.Merge(m.tuple)
				det.Constituents = append(det.Constituents, m.event)
			}
			d.sink(det)
			delete(d.buckets, key) // consumed
			continue
		}
		d.buckets[key] = kept
	}
}

// live filters ms in place down to the matches inside the window (after
// cutoff), clearing the tail so expired events are not retained.
func live(ms []match, cutoff time.Time) []match {
	kept := ms[:0]
	for _, m := range ms {
		if m.event.Time.After(cutoff) {
			kept = append(kept, m)
		}
	}
	clear(ms[len(kept):])
	return kept
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
