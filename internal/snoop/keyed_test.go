package snoop

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/bindings"
	"repro/internal/events"
	"repro/internal/xmltree"
)

var allContexts = []ParamContext{Unrestricted, Recent, Chronicle, Continuous, Cumulative}

// asXML rebinds, in every occurrence whose event carries an s attribute,
// each variable to the fragment <S>value</S>. Fragments of different shape
// with the same text have equal keys but are not Equal, the collision the
// stores' in-bucket check exists for; fragments with numeric text share a
// bucket with numeric strings.
func asXML(occs []Occurrence) []Occurrence {
	for i := range occs {
		shape := occs[i].Constituents[0].Payload.AttrValue("", "s")
		if shape == "" {
			continue
		}
		t := make(bindings.Tuple, len(occs[i].Bindings))
		for k, v := range occs[i].Bindings {
			t[k] = bindings.Fragment(xmltree.NewElement("", shape, xmltree.NewText(v.AsString())))
		}
		occs[i].Bindings = t
	}
	return occs
}

// testDetector is NewDetector with asXML applied at every leaf, as the
// reference detector applies it.
func testDetector(t *testing.T, e Expr, ctx ParamContext, sink func(Occurrence)) *Detector {
	t.Helper()
	d, err := NewDetector(e, ctx, sink)
	if err != nil {
		t.Fatal(err)
	}
	for _, leaf := range d.leaves {
		emit := leaf.emit
		leaf.emit = func(occs []Occurrence) { emit(asXML(occs)) }
	}
	return d
}

// keyedStream generates n stream steps over events a, b, c, d. Every event
// carries k, drawn from spellings of one number ("1", "1.0", " 1", "01")
// plus "2" and "x", and j from {p, q}; some carry an s attribute
// (XML-valued bindings); about one step in ten is a clock tick, an Event
// without Payload.
func keyedStream(rng *rand.Rand, n int) []events.Event {
	ks := []string{"1", "1.0", " 1", "01", "2", "x"}
	out := make([]events.Event, n)
	for i := range out {
		at := time.Unix(int64(i), 0)
		if rng.Intn(10) == 0 {
			out[i] = events.Event{Seq: uint64(i), Time: at.Add(time.Duration(rng.Intn(5)) * time.Second)}
			continue
		}
		e := xmltree.NewElement("", string(rune('a'+rng.Intn(4))))
		e.SetAttr("", "k", ks[rng.Intn(len(ks))])
		e.SetAttr("", "j", []string{"p", "q"}[rng.Intn(2)])
		if rng.Intn(4) == 0 {
			e.SetAttr("", "s", []string{"v", "w"}[rng.Intn(2)])
		}
		out[i] = events.Event{Payload: e, Seq: uint64(i + 1), Time: at}
	}
	return out
}

var keyedLeaves = []string{
	`<a k="$K"/>`, `<b k="$K"/>`, `<c k="$K"/>`, `<d k="$K"/>`,
	`<b k="$K" j="$J"/>`, `<c k="$K" j="$J"/>`, // two join variables
	`<d j="$J"/>`, `<a j="$J"/>`, // nothing shared with a $K-only side
	`<c/>`, `<d/>`,
}

// genExpr draws an expression of at most depth operator levels. Operands
// are drawn independently, so Or and Any children often bind different
// variables.
func genExpr(rng *rand.Rand, depth int) Expr {
	if depth == 0 || rng.Intn(4) == 0 {
		return atomic(keyedLeaves[rng.Intn(len(keyedLeaves))])
	}
	sub := func() Expr { return genExpr(rng, depth-1) }
	switch rng.Intn(8) {
	case 0:
		return &Or{sub(), sub()}
	case 1:
		return &And{sub(), sub()}
	case 2:
		return &Seq{sub(), sub()}
	case 3:
		kids := []Expr{sub(), sub()}
		if rng.Intn(2) == 0 {
			kids = append(kids, sub())
		}
		return &Any{M: 1 + rng.Intn(len(kids)), Children: kids}
	case 4:
		return &Not{sub(), sub(), sub()}
	case 5:
		return &Aperiodic{sub(), sub(), sub()}
	case 6:
		return &AperiodicStar{sub(), sub(), sub()}
	default:
		return &Periodic{Begin: sub(), Interval: time.Duration(2+rng.Intn(3)) * time.Second, End: sub()}
	}
}

// render spells out everything an occurrence carries.
func render(o Occurrence) string {
	var b strings.Builder
	fmt.Fprintf(&b, "[%d,%d]@..%d %s", o.Start, o.End, o.EndTime.Unix(), o.Bindings)
	for _, c := range o.Constituents {
		fmt.Fprintf(&b, " #%d", c.Seq)
	}
	return b.String()
}

// runBoth feeds one stream through the implementation and the reference
// and returns their renderings in detection order.
func runBoth(t *testing.T, e Expr, ctx ParamContext, stream []events.Event) (got, want []string) {
	t.Helper()
	d := testDetector(t, e, ctx, func(o Occurrence) { got = append(got, render(o)) })
	ref := newRefDetector(e, ctx, func(o Occurrence) { want = append(want, render(o)) })
	for _, s := range stream {
		if s.Payload == nil {
			d.Advance(s.Time, s.Seq)
			ref.Advance(s.Time, s.Seq)
			continue
		}
		d.Feed(s)
		ref.Feed(s)
	}
	return got, want
}

func sameDetections(t *testing.T, what string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d detections, reference %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: detection %d\n got  %s\n want %s", what, i, got[i], want[i])
		}
	}
}

// TestKeyedStoresMatchReference: for every context, random expressions of
// every operator over random streams give the reference's detections — same
// occurrences in the same order, with the same bindings, Start/End and
// constituents.
func TestKeyedStoresMatchReference(t *testing.T) {
	fired := map[string]int{} // top-level operator → detections seen
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := genExpr(rng, 2)
		stream := keyedStream(rng, 80)
		for _, ctx := range allContexts {
			got, want := runBoth(t, e, ctx, stream)
			sameDetections(t, fmt.Sprintf("seed %d %v %s", seed, ctx, e), got, want)
			fired[fmt.Sprintf("%T", e)] += len(got)
		}
	}
	for _, op := range []string{"*snoop.Or", "*snoop.And", "*snoop.Seq", "*snoop.Any", "*snoop.Not",
		"*snoop.Aperiodic", "*snoop.AperiodicStar", "*snoop.Periodic"} {
		if fired[op] == 0 {
			t.Errorf("no %s expression detected anything: the property is vacuous there", op)
		}
	}
}

// TestKeyedNestedSequences pins both nestings of a three-way sequence with
// one join variable against the reference, for every context.
func TestKeyedNestedSequences(t *testing.T) {
	a, b, c := atomic(`<a k="$K"/>`), atomic(`<b k="$K"/>`), atomic(`<c k="$K"/>`)
	for name, e := range map[string]Expr{
		"(A;B);C": &Seq{&Seq{a, b}, c},
		"A;(B;C)": &Seq{a, &Seq{b, c}},
	} {
		total := 0
		for seed := int64(0); seed < 40; seed++ {
			stream := keyedStream(rand.New(rand.NewSource(seed)), 120)
			for _, ctx := range allContexts {
				got, want := runBoth(t, e, ctx, stream)
				sameDetections(t, fmt.Sprintf("%s seed %d %v", name, seed, ctx), got, want)
				total += len(got)
			}
		}
		if total == 0 {
			t.Errorf("%s never fired", name)
		}
	}
}

// TestStoreBucketsFollowSharedVariables: a store is keyed by the variables
// both operands always bind, "1" and "1.0" meet in one bucket, no shared
// variable means one bucket, and an emptied bucket is deleted.
func TestStoreBucketsFollowSharedVariables(t *testing.T) {
	buckets := func(e *Seq, keys ...string) int {
		d, err := NewDetector(e, Chronicle, func(Occurrence) {})
		if err != nil {
			t.Fatal(err)
		}
		for i, k := range keys {
			d.Feed(mkEvent("a", uint64(i+1), "k", k, "j", "p"))
		}
		return len(d.root.(*seqNode).store.buckets)
	}
	keyed := &Seq{atomic(`<a k="$K"/>`), atomic(`<b k="$K" j="$J"/>`)}
	if n := buckets(keyed, "x", "y", "1", "1.0", " 1"); n != 3 {
		t.Errorf("seq on $K: %d buckets, want 3 (x, y, and one for the number 1)", n)
	}
	if n := buckets(&Seq{atomic(`<a k="$K"/>`), atomic(`<b j="$J"/>`)}, "x", "y", "z"); n != 1 {
		t.Errorf("no shared variable: %d buckets, want 1", n)
	}
	or := &Seq{&Or{atomic(`<a k="$K"/>`), atomic(`<c j="$J"/>`)}, atomic(`<b k="$K"/>`)}
	if n := buckets(or, "x", "y"); n != 1 {
		t.Errorf("or binding $K on one side only: %d buckets, want 1", n)
	}

	d, got := collect(t, keyed, Chronicle)
	d.Feed(mkEvent("a", 1, "k", "x"))
	d.Feed(mkEvent("a", 2, "k", "1"))
	d.Feed(mkEvent("b", 3, "k", "1.0", "j", "p"))
	d.Feed(mkEvent("b", 4, "k", "x", "j", "p"))
	if len(*got) != 2 {
		t.Fatalf("detections = %v", *got)
	}
	if n := len(d.root.(*seqNode).store.buckets); n != 0 {
		t.Errorf("%d buckets left after every initiator was consumed", n)
	}
}
