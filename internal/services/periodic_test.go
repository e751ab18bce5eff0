package services

import (
	"slices"
	"testing"
	"time"

	"repro/internal/events"
	"repro/internal/protocol"
	"repro/internal/snoop"
	"repro/internal/xmltree"
)

// TestSnoopServicePeriodicAdvance: P(start, 10s, stop) fires on Advance
// even with no events flowing.
func TestSnoopServicePeriodicAdvance(t *testing.T) {
	stream := events.NewStream()
	var got []*protocol.Answer
	s := NewSnoopService(stream, &Deliverer{Local: func(a *protocol.Answer) { got = append(got, a) }})
	defer s.Close()
	register(t, s, "r", periodic("10s"), "")
	base := time.Unix(1000, 0)
	stream.Publish(events.Event{Payload: xmltree.NewElement("", "start"), Time: base})
	if len(got) != 0 {
		t.Fatal("nothing should fire at start")
	}
	s.Advance(base.Add(25 * time.Second))
	if len(got) != 2 {
		t.Fatalf("periodic occurrences = %d, want 2", len(got))
	}
	stream.Publish(events.Event{Payload: xmltree.NewElement("", "stop"), Time: base.Add(26 * time.Second)})
	s.Advance(base.Add(100 * time.Second))
	if len(got) != 2 {
		t.Fatalf("fired after stop: %d", len(got))
	}
}

// TestSnoopServiceTicker: Advance driven from a ticker fires a periodic
// event in wall-clock time.
func TestSnoopServiceTicker(t *testing.T) {
	stream := events.NewStream()
	fired := make(chan struct{}, 16)
	s := NewSnoopService(stream, &Deliverer{Local: func(*protocol.Answer) { fired <- struct{}{} }})
	defer s.Close()
	register(t, s, "r", periodic("5ms"), "")
	stream.Publish(events.New(xmltree.NewElement("", "start")))
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	timeout := time.After(2 * time.Second)
	for {
		select {
		case now := <-tick.C:
			s.Advance(now)
		case <-fired:
			return
		case <-timeout:
			t.Fatal("ticker never fired the periodic event")
		}
	}
}

// periodic is P(start, interval, stop) in SNOOP markup.
func periodic(interval string) string {
	return `<snoop:periodic interval="` + interval + `" xmlns:snoop="` + snoop.NS + `">
		<snoop:event><start/></snoop:event>
		<snoop:event><stop/></snoop:event>
	</snoop:periodic>`
}

// TestPeriodicAdvancesOnForeignEvents: a periodic detector's timers move on
// every event of its tenant, not only on the events it listens to.
func TestPeriodicAdvancesOnForeignEvents(t *testing.T) {
	stream := events.NewStream()
	var got []*protocol.Answer
	s := NewSnoopService(stream, &Deliverer{Local: func(a *protocol.Answer) { got = append(got, a) }})
	defer s.Close()
	register(t, s, "r", periodic("10ms"), "")
	base := time.Unix(1000, 0)
	stream.Publish(events.Event{Payload: xmltree.NewElement("", "start"), Time: base})
	stream.Publish(events.Event{Payload: xmltree.NewElement("", "unrelated"), Time: base.Add(35 * time.Millisecond)})
	if len(got) != 3 {
		t.Fatalf("periodic occurrences = %d, want 3", len(got))
	}
	// Another tenant's events do not move the clock.
	stream.Publish(events.Event{Payload: xmltree.NewElement("", "unrelated"), Time: base.Add(time.Second), Tenant: "acme"})
	if len(got) != 3 {
		t.Fatalf("another tenant's event fired %d more occurrences", len(got)-3)
	}
}

// TestTimersFireBeforeDetections: occurrences of a timer that fall due by an
// event are delivered before that event's detections, whatever order the
// rules were registered in.
func TestTimersFireBeforeDetections(t *testing.T) {
	stream := events.NewStream()
	var got []string
	s := NewSnoopService(stream, &Deliverer{Local: func(a *protocol.Answer) { got = append(got, a.RuleID) }})
	defer s.Close()
	register(t, s, "detect", `<snoop:event xmlns:snoop="`+snoop.NS+`"><x/></snoop:event>`, "")
	register(t, s, "timer", periodic("10ms"), "")
	base := time.Unix(1000, 0)
	stream.Publish(events.Event{Payload: xmltree.NewElement("", "start"), Time: base})
	stream.Publish(events.Event{Payload: xmltree.NewElement("", "x"), Time: base.Add(25 * time.Millisecond)})
	if want := []string{"timer", "timer", "detect"}; !slices.Equal(got, want) {
		t.Fatalf("delivery order %v, want %v", got, want)
	}
}
