package snoop

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/events"
	"repro/internal/xmltree"
)

// randomStream builds a deterministic pseudo-random stream of a/b/c events
// with small key alphabets.
func randomStream(seed int64, n int) []events.Event {
	rng := rand.New(rand.NewSource(seed))
	names := []string{"a", "b", "c"}
	out := make([]events.Event, n)
	for i := 0; i < n; i++ {
		e := xmltree.NewElement("", names[rng.Intn(len(names))])
		e.SetAttr("", "k", string(rune('0'+rng.Intn(3))))
		out[i] = events.Event{Payload: e, Seq: uint64(i + 1), Time: time.Unix(int64(i), 0)}
	}
	return out
}

func feedAll(t *testing.T, e Expr, ctx ParamContext, stream []events.Event) []Occurrence {
	t.Helper()
	var got []Occurrence
	d, err := NewDetector(e, ctx, func(o Occurrence) { got = append(got, o) })
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range stream {
		d.Feed(ev)
	}
	return got
}

// Property: every Seq occurrence is properly ordered and its bindings are
// internally consistent (the join variable agrees across constituents).
func TestPropertySeqOrderingInvariant(t *testing.T) {
	e := &Seq{
		L: atomic(`<a k="$K"/>`),
		R: atomic(`<b k="$K"/>`),
	}
	for seed := int64(0); seed < 20; seed++ {
		for _, ctx := range []ParamContext{Unrestricted, Recent, Chronicle, Continuous, Cumulative} {
			for _, o := range feedAll(t, e, ctx, randomStream(seed, 200)) {
				if o.Start > o.End {
					t.Fatalf("seed %d ctx %v: inverted interval %v", seed, ctx, o)
				}
				if len(o.Constituents) < 2 {
					t.Fatalf("seed %d ctx %v: too few constituents %v", seed, ctx, o)
				}
				k := o.Bindings["K"]
				for _, c := range o.Constituents {
					if got := c.Payload.AttrValue("", "k"); got != k.AsString() {
						t.Fatalf("seed %d ctx %v: constituent key %q != bound %q", seed, ctx, got, k.AsString())
					}
				}
			}
		}
	}
}

// Property: Recent never yields more occurrences than Unrestricted, and
// Chronicle never more than Unrestricted (contexts restrict pairing).
func TestPropertyContextsRestrict(t *testing.T) {
	e := &Seq{
		L: atomic(`<a k="$K"/>`),
		R: atomic(`<b k="$K"/>`),
	}
	for seed := int64(0); seed < 20; seed++ {
		stream := randomStream(seed, 150)
		unrestricted := len(feedAll(t, e, Unrestricted, stream))
		for _, ctx := range []ParamContext{Recent, Chronicle, Continuous} {
			if got := len(feedAll(t, e, ctx, stream)); got > unrestricted {
				t.Fatalf("seed %d: %v yields %d > unrestricted %d", seed, ctx, got, unrestricted)
			}
		}
	}
}

// Property: Or(A, B) occurrence count equals count(A) + count(B) for
// atomic children (no state, no context interaction).
func TestPropertyOrIsUnion(t *testing.T) {
	a := atomic(`<a/>`)
	b := atomic(`<b/>`)
	or := &Or{a, b}
	for seed := int64(0); seed < 20; seed++ {
		stream := randomStream(seed, 100)
		na := len(feedAll(t, a, Unrestricted, stream))
		nb := len(feedAll(t, b, Unrestricted, stream))
		nor := len(feedAll(t, or, Unrestricted, stream))
		if nor != na+nb {
			t.Fatalf("seed %d: or=%d, a+b=%d", seed, nor, na+nb)
		}
	}
}

// Property: in Chronicle context each initiator occurrence is consumed at
// most once — the number of Seq occurrences is at most min(#a, #b).
func TestPropertyChronicleConsumption(t *testing.T) {
	e := &Seq{
		L: atomic(`<a/>`),
		R: atomic(`<b/>`),
	}
	for seed := int64(0); seed < 20; seed++ {
		stream := randomStream(seed, 100)
		na, nb := 0, 0
		for _, ev := range stream {
			switch ev.Payload.Name.Local {
			case "a":
				na++
			case "b":
				nb++
			}
		}
		limit := na
		if nb < limit {
			limit = nb
		}
		if got := len(feedAll(t, e, Chronicle, stream)); got > limit {
			t.Fatalf("seed %d: chronicle seq = %d > min(%d,%d)", seed, got, na, nb)
		}
	}
}

// Property: Not never fires when the guarded event always occurs between
// initiator and terminator.
func TestPropertyNotSuppression(t *testing.T) {
	e := &Not{
		Begin:   atomic(`<a/>`),
		Guarded: atomic(`<g/>`),
		End:     atomic(`<b/>`),
	}
	// Stream: a g b a g b … — guard always present.
	var stream []events.Event
	names := []string{"a", "g", "b"}
	for i := 0; i < 90; i++ {
		el := xmltree.NewElement("", names[i%3])
		stream = append(stream, events.Event{Payload: el, Seq: uint64(i + 1), Time: time.Unix(int64(i), 0)})
	}
	for _, ctx := range []ParamContext{Unrestricted, Recent, Chronicle} {
		if got := feedAll(t, e, ctx, stream); len(got) != 0 {
			t.Fatalf("ctx %v: suppressed NOT fired %d times", ctx, len(got))
		}
	}
}
