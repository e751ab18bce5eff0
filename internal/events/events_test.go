package events

import (
	"sync/atomic"
	"testing"

	"repro/internal/bindings"
	"repro/internal/xmltree"
)

const travelNS = "http://example.org/travel"

func booking(person, from, to string) Event {
	e := xmltree.NewElement(travelNS, "booking")
	e.SetAttr("xmlns", "travel", travelNS)
	e.SetAttr("", "person", person)
	e.SetAttr("", "from", from)
	e.SetAttr("", "to", to)
	return New(e)
}

// mustPattern compiles a pattern from XML source, panicking on error.
func mustPattern(src string) *Pattern {
	p, err := NewPattern(xmltree.MustParse(src))
	if err != nil {
		panic(err)
	}
	return p
}

func TestStreamPublishSubscribe(t *testing.T) {
	s := NewStream()
	var got []uint64
	cancel := s.Subscribe(func(ev Event) { got = append(got, ev.Seq) })
	s.Publish(booking("a", "b", "c"))
	s.Publish(booking("d", "e", "f"))
	cancel()
	s.Publish(booking("g", "h", "i"))
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("got = %v", got)
	}
}

func TestStreamSubscriberOrder(t *testing.T) {
	s := NewStream()
	var order []int
	s.Subscribe(func(Event) { order = append(order, 1) })
	s.Subscribe(func(Event) { order = append(order, 2) })
	s.Publish(booking("a", "b", "c"))
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("order = %v", order)
	}
}

// TestFig6PatternMatch reproduces the paper's event component: a booking by
// any person binds Person and Dest.
func TestFig6PatternMatch(t *testing.T) {
	p := mustPattern(`<travel:booking xmlns:travel="http://example.org/travel" person="$Person" to="$Dest"/>`)
	ts := p.Match(booking("John Doe", "Munich", "Paris"))
	if len(ts) != 1 {
		t.Fatalf("match = %v", ts)
	}
	if ts[0]["Person"].AsString() != "John Doe" || ts[0]["Dest"].AsString() != "Paris" {
		t.Errorf("tuple = %v", ts[0])
	}
	if got := p.Binds(); len(got) != 2 || got[0] != "Dest" || got[1] != "Person" {
		t.Errorf("vars = %v", got)
	}
}

func TestPatternLiteralMismatch(t *testing.T) {
	p := mustPattern(`<travel:booking xmlns:travel="http://example.org/travel" to="Paris"/>`)
	if got := p.Match(booking("X", "Y", "Rome")); len(got) != 0 {
		t.Errorf("should not match Rome booking: %v", got)
	}
	if got := p.Match(booking("X", "Y", "Paris")); len(got) != 1 {
		t.Errorf("should match Paris booking: %v", got)
	}
}

func TestPatternWrongNameOrMissingAttr(t *testing.T) {
	p := mustPattern(`<travel:cancellation xmlns:travel="http://example.org/travel" person="$P"/>`)
	if got := p.Match(booking("X", "Y", "Z")); len(got) != 0 {
		t.Error("wrong element name must not match")
	}
	p2 := mustPattern(`<travel:booking xmlns:travel="http://example.org/travel" seat="$S"/>`)
	if got := p2.Match(booking("X", "Y", "Z")); len(got) != 0 {
		t.Error("missing attribute must not match")
	}
}

func TestPatternJoinVariable(t *testing.T) {
	// $P occurs twice: only events where both attributes agree match.
	p := mustPattern(`<m from="$P" signedby="$P"/>`)
	ok := xmltree.NewElement("", "m")
	ok.SetAttr("", "from", "alice").SetAttr("", "signedby", "alice")
	bad := xmltree.NewElement("", "m")
	bad.SetAttr("", "from", "alice").SetAttr("", "signedby", "bob")
	if got := p.Match(New(ok)); len(got) != 1 {
		t.Errorf("agreeing event should match: %v", got)
	}
	if got := p.Match(New(bad)); len(got) != 0 {
		t.Errorf("disagreeing event should not match: %v", got)
	}
}

func TestPatternChildElementsAndText(t *testing.T) {
	p := mustPattern(`<order><item sku="$Sku">$Qty</item></order>`)
	ev := xmltree.MustParse(`<order><item sku="A1">3</item><item sku="B2">5</item></order>`)
	ts := p.Match(New(ev))
	if len(ts) != 2 {
		t.Fatalf("matches = %v", ts)
	}
	seen := map[string]string{}
	for _, tp := range ts {
		seen[tp["Sku"].AsString()] = tp["Qty"].AsString()
	}
	if seen["A1"] != "3" || seen["B2"] != "5" {
		t.Errorf("bindings = %v", seen)
	}
}

func TestPatternChildrenDistinct(t *testing.T) {
	// Two pattern children must match two *different* event children.
	p := mustPattern(`<pair><v>$A</v><v>$B</v></pair>`)
	ev := xmltree.MustParse(`<pair><v>1</v></pair>`)
	if ts := p.Match(New(ev)); len(ts) != 0 {
		t.Errorf("single child cannot satisfy two pattern children: %v", ts)
	}
	ev2 := xmltree.MustParse(`<pair><v>1</v><v>2</v></pair>`)
	if ts := p.Match(New(ev2)); len(ts) != 2 { // (1,2) and (2,1)
		t.Errorf("expected two combinations, got %v", ts)
	}
}

func TestPatternFixedText(t *testing.T) {
	p := mustPattern(`<status>ready</status>`)
	if ts := p.Match(New(xmltree.MustParse(`<status>ready</status>`))); len(ts) != 1 {
		t.Error("equal text should match")
	}
	if ts := p.Match(New(xmltree.MustParse(`<status>busy</status>`))); len(ts) != 0 {
		t.Error("different text should not match")
	}
}

func TestMatcherRegisterDetect(t *testing.T) {
	m := NewMatcher()
	s := NewStream()
	s.Subscribe(m.OnEvent)
	var detected []Detection
	p := mustPattern(`<travel:booking xmlns:travel="http://example.org/travel" person="$Person" to="$Dest"/>`)
	m.Register("rule-1:event", p, func(d Detection) { detected = append(detected, d) })
	s.Publish(booking("John Doe", "Munich", "Paris"))
	s.Publish(New(xmltree.NewElement("other", "noise")))
	if len(detected) != 1 {
		t.Fatalf("detections = %d", len(detected))
	}
	d := detected[0]
	if d.Key != "rule-1:event" || len(d.Bindings) != 1 {
		t.Fatalf("detection = %+v", d)
	}
	if d.Bindings[0]["Person"].AsString() != "John Doe" {
		t.Errorf("binding = %v", d.Bindings[0])
	}
	if !m.Unregister("", "rule-1:event") {
		t.Error("unregister should succeed")
	}
	detected = nil
	s.Publish(booking("X", "Y", "Z"))
	if len(detected) != 0 {
		t.Error("unregistered pattern still fired")
	}
}

func TestMatcherConcurrent(t *testing.T) {
	m := NewMatcher()
	s := NewStream()
	s.Subscribe(m.OnEvent)
	var count atomic.Int64
	p := mustPattern(`<e n="$N"/>`)
	m.Register("k", p, func(Detection) { count.Add(1) })
	done := make(chan bool)
	for g := 0; g < 4; g++ {
		go func() {
			for i := 0; i < 50; i++ {
				e := xmltree.NewElement("", "e")
				e.SetAttr("", "n", "1")
				s.Publish(New(e))
			}
			done <- true
		}()
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	if count.Load() != 200 {
		t.Errorf("count = %d", count.Load())
	}
}

func TestBindingsAreIndependent(t *testing.T) {
	// Tuples returned by Match must not share storage.
	p := mustPattern(`<e a="$A"/>`)
	e := xmltree.NewElement("", "e")
	e.SetAttr("", "a", "v")
	ts := p.Match(New(e))
	ts[0]["A"] = bindings.Str("mutated")
	ts2 := p.Match(New(e))
	if ts2[0]["A"].AsString() != "v" {
		t.Error("pattern state leaked between matches")
	}
}
