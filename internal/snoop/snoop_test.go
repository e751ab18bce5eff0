package snoop

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/events"
	"repro/internal/xmltree"
)

// mkEvent builds a primitive event <name k="v" …/> with explicit stream
// position and time.
func mkEvent(name string, seq uint64, attrs ...string) events.Event {
	e := xmltree.NewElement("", name)
	for i := 0; i+1 < len(attrs); i += 2 {
		e.SetAttr("", attrs[i], attrs[i+1])
	}
	return events.Event{Payload: e, Seq: seq, Time: time.Unix(int64(seq), 0)}
}

// atomic compiles an atomic expression from pattern source, panicking on
// error.
func atomic(src string) *Atomic {
	p, err := events.NewPattern(xmltree.MustParse(src))
	if err != nil {
		panic(err)
	}
	return &Atomic{Pattern: p}
}

// collect builds a detector whose occurrences are appended to the returned
// slice pointer.
func collect(t *testing.T, e Expr, ctx ParamContext) (*Detector, *[]Occurrence) {
	t.Helper()
	var got []Occurrence
	d, err := NewDetector(e, ctx, func(o Occurrence) { got = append(got, o) })
	if err != nil {
		t.Fatal(err)
	}
	return d, &got
}

func TestAtomicDetection(t *testing.T) {
	d, got := collect(t, atomic(`<a x="$X"/>`), Unrestricted)
	d.Feed(mkEvent("a", 1, "x", "1"))
	d.Feed(mkEvent("b", 2))
	d.Feed(mkEvent("a", 3, "x", "2"))
	if len(*got) != 2 {
		t.Fatalf("occurrences = %v", *got)
	}
	if (*got)[0].Bindings["X"].AsString() != "1" || (*got)[1].Bindings["X"].AsString() != "2" {
		t.Errorf("bindings = %v", *got)
	}
}

func TestOr(t *testing.T) {
	d, got := collect(t, &Or{atomic(`<a/>`), atomic(`<b/>`)}, Unrestricted)
	d.Feed(mkEvent("a", 1))
	d.Feed(mkEvent("b", 2))
	d.Feed(mkEvent("c", 3))
	if len(*got) != 2 {
		t.Fatalf("or occurrences = %v", *got)
	}
}

func TestSeqOrdering(t *testing.T) {
	d, got := collect(t, &Seq{atomic(`<a/>`), atomic(`<b/>`)}, Unrestricted)
	d.Feed(mkEvent("b", 1)) // b before any a: no occurrence
	d.Feed(mkEvent("a", 2))
	d.Feed(mkEvent("b", 3))
	if len(*got) != 1 {
		t.Fatalf("seq = %v", *got)
	}
	o := (*got)[0]
	if o.Start != 2 || o.End != 3 {
		t.Errorf("interval = [%d,%d]", o.Start, o.End)
	}
}

func TestSeqJoinVariables(t *testing.T) {
	// booking($P) ; cancellation($P): only same-person pairs.
	e := &Seq{atomic(`<booking person="$P"/>`), atomic(`<cancellation person="$P"/>`)}
	d, got := collect(t, e, Unrestricted)
	d.Feed(mkEvent("booking", 1, "person", "john"))
	d.Feed(mkEvent("booking", 2, "person", "jane"))
	d.Feed(mkEvent("cancellation", 3, "person", "john"))
	if len(*got) != 1 {
		t.Fatalf("seq with vars = %v", *got)
	}
	if (*got)[0].Bindings["P"].AsString() != "john" {
		t.Errorf("binding = %v", (*got)[0].Bindings)
	}
}

func TestSeqContexts(t *testing.T) {
	feed := func(ctx ParamContext) []Occurrence {
		e := &Seq{atomic(`<a n="$N"/>`), atomic(`<b/>`)}
		var got []Occurrence
		d, err := NewDetector(e, ctx, func(o Occurrence) { got = append(got, o) })
		if err != nil {
			t.Fatal(err)
		}
		d.Feed(mkEvent("a", 1, "n", "1"))
		d.Feed(mkEvent("a", 2, "n", "2"))
		d.Feed(mkEvent("b", 3))
		d.Feed(mkEvent("b", 4))
		return got
	}
	// Unrestricted: both initiators pair with both terminators → 4.
	if got := feed(Unrestricted); len(got) != 4 {
		t.Errorf("unrestricted = %d, want 4: %v", len(got), got)
	}
	// Recent: only the latest initiator (n=2) survives; it pairs with both
	// terminators → 2 occurrences, both with N=2.
	got := feed(Recent)
	if len(got) != 2 || got[0].Bindings["N"].AsString() != "2" || got[1].Bindings["N"].AsString() != "2" {
		t.Errorf("recent = %v", got)
	}
	// Chronicle: first terminator consumes oldest initiator (n=1), second
	// consumes n=2.
	got = feed(Chronicle)
	if len(got) != 2 || got[0].Bindings["N"].AsString() != "1" || got[1].Bindings["N"].AsString() != "2" {
		t.Errorf("chronicle = %v", got)
	}
	// Continuous: first terminator closes both windows (2 occurrences);
	// second finds none.
	got = feed(Continuous)
	if len(got) != 2 || got[0].End != 3 || got[1].End != 3 {
		t.Errorf("continuous = %v", got)
	}
	// Cumulative accumulates all *binding-compatible* initiators per
	// terminator. N=1 and N=2 conflict, so the first terminator absorbs
	// N=1 (leaving N=2 stored) and the second absorbs N=2.
	got = feed(Cumulative)
	if len(got) != 2 || got[0].Bindings["N"].AsString() != "1" || got[1].Bindings["N"].AsString() != "2" {
		t.Errorf("cumulative = %v", got)
	}
}

func TestCumulativeMergesCompatible(t *testing.T) {
	e := &Seq{atomic(`<a/>`), atomic(`<b/>`)}
	d, got := collect(t, e, Cumulative)
	d.Feed(mkEvent("a", 1))
	d.Feed(mkEvent("a", 2))
	d.Feed(mkEvent("b", 3))
	if len(*got) != 1 {
		t.Fatalf("cumulative = %v", *got)
	}
	o := (*got)[0]
	if len(o.Constituents) != 3 || o.Start != 1 || o.End != 3 {
		t.Errorf("accumulated = %+v", o)
	}
	// Consumed: next terminator emits nothing.
	d.Feed(mkEvent("b", 4))
	if len(*got) != 1 {
		t.Errorf("initiators not consumed: %v", *got)
	}
}

func TestAndAnyOrder(t *testing.T) {
	e := &And{atomic(`<a/>`), atomic(`<b/>`)}
	d, got := collect(t, e, Unrestricted)
	d.Feed(mkEvent("b", 1))
	d.Feed(mkEvent("a", 2))
	if len(*got) != 1 {
		t.Fatalf("and = %v", *got)
	}
	if (*got)[0].Start != 1 || (*got)[0].End != 2 {
		t.Errorf("interval = %v", (*got)[0])
	}
}

func TestAndJoinVariables(t *testing.T) {
	e := &And{atomic(`<a p="$P"/>`), atomic(`<b p="$P"/>`)}
	d, got := collect(t, e, Unrestricted)
	d.Feed(mkEvent("a", 1, "p", "x"))
	d.Feed(mkEvent("b", 2, "p", "y"))
	if len(*got) != 0 {
		t.Fatalf("incompatible and = %v", *got)
	}
	d.Feed(mkEvent("b", 3, "p", "x"))
	if len(*got) != 1 {
		t.Fatalf("and = %v", *got)
	}
}

func TestAny(t *testing.T) {
	e := &Any{M: 2, Children: []Expr{atomic(`<a/>`), atomic(`<b/>`), atomic(`<c/>`)}}
	d, got := collect(t, e, Unrestricted)
	d.Feed(mkEvent("a", 1))
	if len(*got) != 0 {
		t.Fatal("any(2) should not fire after one")
	}
	d.Feed(mkEvent("c", 2))
	if len(*got) != 1 {
		t.Fatalf("any(2) = %v", *got)
	}
	if (*got)[0].Start != 1 || (*got)[0].End != 2 {
		t.Errorf("interval = %v", (*got)[0])
	}
}

func TestAnyOne(t *testing.T) {
	e := &Any{M: 1, Children: []Expr{atomic(`<a/>`), atomic(`<b/>`)}}
	d, got := collect(t, e, Unrestricted)
	d.Feed(mkEvent("b", 1))
	if len(*got) != 1 {
		t.Fatalf("any(1) = %v", *got)
	}
}

func TestNot(t *testing.T) {
	// NOT(cancel)[book, fly]: flying after booking with no cancellation in
	// between.
	e := &Not{
		Begin:   atomic(`<book p="$P"/>`),
		Guarded: atomic(`<cancel p="$P"/>`),
		End:     atomic(`<fly p="$P"/>`),
	}
	d, got := collect(t, e, Unrestricted)
	d.Feed(mkEvent("book", 1, "p", "john"))
	d.Feed(mkEvent("fly", 2, "p", "john"))
	if len(*got) != 1 {
		t.Fatalf("not (no guard) = %v", *got)
	}
	d.Feed(mkEvent("book", 3, "p", "jane"))
	d.Feed(mkEvent("cancel", 4, "p", "jane"))
	d.Feed(mkEvent("fly", 5, "p", "jane"))
	if len(*got) != 1 {
		t.Fatalf("guarded occurrence should be suppressed: %v", *got)
	}
	// A cancellation by someone else must NOT suppress (join variables).
	d.Feed(mkEvent("book", 6, "p", "ann"))
	d.Feed(mkEvent("cancel", 7, "p", "bob"))
	d.Feed(mkEvent("fly", 8, "p", "ann"))
	if len(*got) != 2 {
		t.Fatalf("unrelated cancel suppressed detection: %v", *got)
	}
}

func TestAperiodic(t *testing.T) {
	// A(open, tick, close): ticks inside the window are signalled.
	e := &Aperiodic{Begin: atomic(`<open/>`), Mid: atomic(`<tick n="$N"/>`), End: atomic(`<close/>`)}
	d, got := collect(t, e, Unrestricted)
	d.Feed(mkEvent("tick", 1, "n", "0")) // outside window
	d.Feed(mkEvent("open", 2))
	d.Feed(mkEvent("tick", 3, "n", "1"))
	d.Feed(mkEvent("tick", 4, "n", "2"))
	d.Feed(mkEvent("close", 5))
	d.Feed(mkEvent("tick", 6, "n", "3")) // window closed
	if len(*got) != 2 {
		t.Fatalf("aperiodic = %v", *got)
	}
	if (*got)[0].Bindings["N"].AsString() != "1" || (*got)[1].Bindings["N"].AsString() != "2" {
		t.Errorf("ticks = %v", *got)
	}
}

func TestAperiodicStar(t *testing.T) {
	// A*(open, tick, close): ticks are accumulated and signalled once at
	// the terminator.
	e := &AperiodicStar{Begin: atomic(`<open/>`), Mid: atomic(`<tick n="$N"/>`), End: atomic(`<close/>`)}
	d, got := collect(t, e, Unrestricted)
	d.Feed(mkEvent("open", 1))
	d.Feed(mkEvent("tick", 2, "n", "1"))
	d.Feed(mkEvent("tick", 3, "n", "1")) // same binding: accumulates
	if len(*got) != 0 {
		t.Fatal("A* must stay silent until the terminator")
	}
	d.Feed(mkEvent("close", 4))
	if len(*got) != 1 {
		t.Fatalf("A* = %v", *got)
	}
	o := (*got)[0]
	if o.Start != 1 || o.End != 4 || len(o.Constituents) != 4 {
		t.Errorf("accumulated = %+v", o)
	}
	// A window with no mids signals nothing.
	d.Feed(mkEvent("open", 5))
	d.Feed(mkEvent("close", 6))
	if len(*got) != 1 {
		t.Errorf("empty window signalled: %v", *got)
	}
}

func TestAperiodicStarParseXML(t *testing.T) {
	src := `<snoop:aperiodic-star xmlns:snoop="` + NS + `">
		<snoop:event><a/></snoop:event>
		<snoop:event><b/></snoop:event>
		<snoop:event><c/></snoop:event>
	</snoop:aperiodic-star>`
	e, err := ParseXML(xmltree.MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := e.(*AperiodicStar); !ok {
		t.Fatalf("parsed %T", e)
	}
}

func TestPeriodic(t *testing.T) {
	e := &Periodic{Begin: atomic(`<start/>`), Interval: 10 * time.Second, End: atomic(`<stop/>`)}
	d, got := collect(t, e, Unrestricted)
	d.Feed(events.Event{Payload: xmltree.NewElement("", "start"), Seq: 1, Time: time.Unix(100, 0)})
	// Advance the clock 35 seconds: three periods elapse.
	d.Advance(time.Unix(135, 0), 2)
	if len(*got) != 3 {
		t.Fatalf("periodic = %v", *got)
	}
	// Stop, then advance again: no more occurrences.
	d.Feed(events.Event{Payload: xmltree.NewElement("", "stop"), Seq: 3, Time: time.Unix(140, 0)})
	d.Advance(time.Unix(200, 0), 4)
	if len(*got) != 4 {
		// One more period (t=140) fires when the stop event itself advances
		// the clock to 140, before the stop is processed.
		t.Fatalf("periodic after stop = %d occurrences: %v", len(*got), *got)
	}
}

func TestNestedComposite(t *testing.T) {
	// (a ∨ b) ; c
	e := &Seq{&Or{atomic(`<a/>`), atomic(`<b/>`)}, atomic(`<c/>`)}
	d, got := collect(t, e, Unrestricted)
	d.Feed(mkEvent("b", 1))
	d.Feed(mkEvent("c", 2))
	if len(*got) != 1 {
		t.Fatalf("nested = %v", *got)
	}
}

func TestValidateErrors(t *testing.T) {
	bad := []Expr{
		&Any{M: 0, Children: []Expr{atomic(`<a/>`)}},
		&Any{M: 3, Children: []Expr{atomic(`<a/>`)}},
		&Periodic{Begin: atomic(`<a/>`), Interval: 0, End: atomic(`<b/>`)},
		&Periodic{Begin: atomic(`<a/>`), Interval: time.Nanosecond, End: atomic(`<b/>`)},
		&Periodic{Begin: atomic(`<a/>`), Interval: time.Millisecond - 1, End: atomic(`<b/>`)},
		&Atomic{},
	}
	for _, e := range bad {
		if err := Validate(e); err == nil {
			t.Errorf("Validate(%T) should fail", e)
		}
	}
	for _, iv := range []time.Duration{time.Millisecond, 5 * time.Millisecond, 10 * time.Millisecond, 5 * time.Second, 10 * time.Second} {
		if err := Validate(&Periodic{Begin: atomic(`<a/>`), Interval: iv, End: atomic(`<b/>`)}); err != nil {
			t.Errorf("interval %v rejected: %v", iv, err)
		}
	}
}

func TestParseXML(t *testing.T) {
	src := `<snoop:seq xmlns:snoop="` + NS + `" xmlns:travel="http://t/">
		<snoop:event><travel:booking person="$P"/></snoop:event>
		<snoop:event><travel:cancellation person="$P"/></snoop:event>
	</snoop:seq>`
	e, err := ParseXML(xmltree.MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	seq, ok := e.(*Seq)
	if !ok {
		t.Fatalf("parsed %T", e)
	}
	if _, ok := seq.L.(*Atomic); !ok {
		t.Errorf("left = %T", seq.L)
	}
	// Run it.
	var got []Occurrence
	d, err := NewDetector(e, Chronicle, func(o Occurrence) { got = append(got, o) })
	if err != nil {
		t.Fatal(err)
	}
	mk := func(name string, seqn uint64, p string) events.Event {
		el := xmltree.NewElement("http://t/", name)
		el.SetAttr("", "person", p)
		return events.Event{Payload: el, Seq: seqn, Time: time.Unix(int64(seqn), 0)}
	}
	d.Feed(mk("booking", 1, "john"))
	d.Feed(mk("cancellation", 2, "john"))
	if len(got) != 1 {
		t.Fatalf("detections = %v", got)
	}
}

func TestParseXMLOperators(t *testing.T) {
	cases := map[string]string{
		"or":        `<snoop:or xmlns:snoop="` + NS + `"><snoop:event><a/></snoop:event><snoop:event><b/></snoop:event></snoop:or>`,
		"and":       `<snoop:and xmlns:snoop="` + NS + `"><snoop:event><a/></snoop:event><snoop:event><b/></snoop:event></snoop:and>`,
		"any":       `<snoop:any m="1" xmlns:snoop="` + NS + `"><snoop:event><a/></snoop:event></snoop:any>`,
		"not":       `<snoop:not xmlns:snoop="` + NS + `"><snoop:event><a/></snoop:event><snoop:event><b/></snoop:event><snoop:event><c/></snoop:event></snoop:not>`,
		"aperiodic": `<snoop:aperiodic xmlns:snoop="` + NS + `"><snoop:event><a/></snoop:event><snoop:event><b/></snoop:event><snoop:event><c/></snoop:event></snoop:aperiodic>`,
		"periodic":  `<snoop:periodic interval="5s" xmlns:snoop="` + NS + `"><snoop:event><a/></snoop:event><snoop:event><b/></snoop:event></snoop:periodic>`,
	}
	for op, src := range cases {
		if _, err := ParseXML(xmltree.MustParse(src)); err != nil {
			t.Errorf("parse %s: %v", op, err)
		}
	}
	bad := []string{
		`<snoop:seq xmlns:snoop="` + NS + `"><snoop:event><a/></snoop:event></snoop:seq>`, // 1 operand
		`<snoop:any m="x" xmlns:snoop="` + NS + `"><snoop:event><a/></snoop:event></snoop:any>`,
		`<snoop:periodic interval="bogus" xmlns:snoop="` + NS + `"><snoop:event><a/></snoop:event><snoop:event><b/></snoop:event></snoop:periodic>`,
		`<snoop:zap xmlns:snoop="` + NS + `"/>`,
		`<wrong/>`,
		`<snoop:event xmlns:snoop="` + NS + `"></snoop:event>`,
	}
	for _, src := range bad {
		if _, err := ParseXML(xmltree.MustParse(src)); err == nil {
			t.Errorf("ParseXML(%q) should fail", src)
		}
	}
}

func TestFoldedNarySeq(t *testing.T) {
	src := `<snoop:seq xmlns:snoop="` + NS + `">
		<snoop:event><a/></snoop:event>
		<snoop:event><b/></snoop:event>
		<snoop:event><c/></snoop:event>
	</snoop:seq>`
	e, err := ParseXML(xmltree.MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	d, got := collect(t, e, Unrestricted)
	for i, name := range []string{"a", "b", "c"} {
		d.Feed(mkEvent(name, uint64(i+1)))
	}
	if len(*got) != 1 {
		t.Fatalf("a;b;c = %v", *got)
	}
	if (*got)[0].Start != 1 || (*got)[0].End != 3 {
		t.Errorf("interval = %v", (*got)[0])
	}
	// Wrong order: nothing.
	d2, got2 := collect(t, e, Unrestricted)
	for i, name := range []string{"c", "b", "a"} {
		d2.Feed(mkEvent(name, uint64(i+1)))
	}
	if len(*got2) != 0 {
		t.Errorf("reversed order fired: %v", *got2)
	}
}

func TestContextString(t *testing.T) {
	for _, c := range []ParamContext{Unrestricted, Recent, Chronicle, Continuous, Cumulative} {
		back, err := ParseContext(c.String())
		if err != nil || back != c {
			t.Errorf("context round trip %v: %v %v", c, back, err)
		}
	}
	if _, err := ParseContext("bogus"); err == nil {
		t.Error("bogus context should fail")
	}
}

func TestDetectorThroughputSanity(t *testing.T) {
	// A long stream through a two-level graph stays linear-ish (chronicle
	// consumes state).
	e := &Seq{atomic(`<a k="$K"/>`), atomic(`<b k="$K"/>`)}
	d, got := collect(t, e, Chronicle)
	for i := 0; i < 1000; i++ {
		k := fmt.Sprintf("%d", i%10)
		d.Feed(mkEvent("a", uint64(2*i+1), "k", k))
		d.Feed(mkEvent("b", uint64(2*i+2), "k", k))
	}
	if len(*got) != 1000 {
		t.Fatalf("pairs = %d", len(*got))
	}
}
