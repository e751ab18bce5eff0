package system

import (
	"testing"
	"time"

	"repro/internal/events"
	"repro/internal/protocol"
	"repro/internal/ruleml"
	"repro/internal/services"
	"repro/internal/snoop"
	"repro/internal/xmltree"
)

// TestPeriodicRaiseFromAdvance: a P(open, 10ms, close) rule whose action
// raises an event, ticked by Advance. The tick's delivery raises an event
// that the idle stream dispatches on the ticking goroutine, into the
// detection host the tick is stepping; that used to wait forever on the
// mutex the tick itself held.
func TestPeriodicRaiseFromAdvance(t *testing.T) {
	const ns = `xmlns:eca="` + protocol.ECANS + `" xmlns:t="` + tNS + `" xmlns:snoop="` + snoop.NS +
		`" xmlns:act="` + services.ActionNS + `"`
	rules := []string{
		`<eca:rule ` + ns + ` id="ticker">
		  <eca:event><snoop:periodic interval="10ms">
		    <snoop:event><t:open k="$K"/></snoop:event>
		    <snoop:event><t:close k="$K"/></snoop:event>
		  </snoop:periodic></eca:event>
		  <eca:action><act:raise><t:tick k="$K"/></act:raise></eca:action>
		</eca:rule>`,
		`<eca:rule ` + ns + ` id="chained">
		  <eca:event><t:tick k="$K"/></eca:event>
		  <eca:action><t:pong k="$K"/></eca:action>
		</eca:rule>`,
	}
	sys, err := NewLocal(Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rules {
		if err := sys.Engine.Register(ruleml.MustParse(r)); err != nil {
			t.Fatal(err)
		}
	}
	open := sys.Stream.Publish(events.New(xmltree.MustParse(`<t:open xmlns:t="` + tNS + `" k="1"/>`)))
	ticked := make(chan struct{})
	go func() {
		defer close(ticked)
		sys.Snoop.Advance(open.Time.Add(35 * time.Millisecond)) // three periods
	}()
	// On failure the system is left running: closing it would wait for the
	// hung tick.
	select {
	case <-ticked:
	case <-time.After(10 * time.Second):
		t.Fatal("Advance never returned: the raised event waited on the tick's own host")
	}
	if got := len(sys.Notifier.Sent()); got != 3 {
		t.Fatalf("chained rule fired %d times, want one per elapsed period (3)", got)
	}
	sys.Close()
}
