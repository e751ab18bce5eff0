package engine_test

import (
	"errors"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/datalog"
	"repro/internal/domain/travel"
	"repro/internal/engine"
	"repro/internal/events"
	"repro/internal/protocol"
	"repro/internal/ruleml"
	"repro/internal/services"
	"repro/internal/system"
	"repro/internal/xmltree"
)

// TestCarRentalEndToEnd reproduces the complete running example of the
// paper (Figs. 4–11): registration, detection, the three query components
// (framework-aware, framework-unaware opaque, log:answers-generating), the
// natural join, and the per-tuple action.
func TestCarRentalEndToEnd(t *testing.T) {
	sc, cleanup, err := travel.NewScenario(system.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()

	// Fig. 5: the event component is registered with the atomic matcher.
	if sc.Matcher.Registrations() != 1 {
		t.Fatalf("matcher registrations = %d, want 1", sc.Matcher.Registrations())
	}

	// Fig. 6: the booking event occurs.
	sc.Book("John Doe", "Munich", "Paris")

	sent := sc.Notifier.Sent()
	if len(sent) != 1 {
		t.Fatalf("notifications = %d, want exactly 1 (only the class-B tuple survives)\n%+v", len(sent), sent)
	}
	msg := sent[0].Message
	if msg.Name.Local != "inform" || msg.Name.Space != travel.NS {
		t.Errorf("message = %s", msg)
	}
	checks := map[string]string{
		"person": "John Doe",
		"ownCar": "VW Passat",
		"class":  "B",
		"car":    "Opel Astra",
	}
	for attr, want := range checks {
		if got := msg.AttrValue("", attr); got != want {
			t.Errorf("inform/@%s = %q, want %q", attr, got, want)
		}
	}

	st := sc.Engine.Stats()
	if st.InstancesCreated != 1 || st.InstancesCompleted != 1 || st.InstancesDied != 0 {
		t.Errorf("stats = %+v", st)
	}

	// A booking to a city with no matching classes dies at the join.
	sc.Notifier.Reset()
	sc.Book("Jane Roe", "Berlin", "Rome") // Twingo is class A; Rome offers A and C
	sent = sc.Notifier.Sent()
	if len(sent) != 1 {
		t.Fatalf("Rome notifications = %d, want 1 (Twingo/A matches Fiat Panda/A)\n%+v", len(sent), sent)
	}
	if got := sent[0].Message.AttrValue("", "car"); got != "Fiat Panda" {
		t.Errorf("Rome car = %q", got)
	}

	// An unknown person binds no OwnCar: the instance is eliminated at the
	// first eca:variable (zero functional results), no message is sent.
	sc.Notifier.Reset()
	sc.Book("Nobody", "A", "B")
	if n := len(sc.Notifier.Sent()); n != 0 {
		t.Errorf("unknown person produced %d notifications", n)
	}
	st = sc.Engine.Stats()
	if st.InstancesDied == 0 {
		t.Error("expected a died instance for unknown person")
	}
}

// TestFig8TwoTuples pins the intermediate cardinality of Fig. 8: after the
// OwnCar variable is bound, the instance relation has exactly two tuples.
func TestFig8TwoTuples(t *testing.T) {
	var afterQuery1 []string
	logger := engineLogCapture(&afterQuery1, "after query[1]")
	sc, cleanup, err := travel.NewScenario(system.Config{Logger: logger})
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	sc.Book("John Doe", "Munich", "Paris")
	if len(afterQuery1) != 1 || !strings.Contains(afterQuery1[0], "2 tuple(s)") {
		t.Fatalf("after query[1] trace = %v, want 2 tuples", afterQuery1)
	}
}

func engineLogCapture(dst *[]string, substr string) systemLogger {
	return systemLogger{dst: dst, substr: substr}
}

type systemLogger struct {
	dst    *[]string
	substr string
}

func (l systemLogger) Logf(format string, args ...any) {
	line := strings.TrimSpace(fmt.Sprintf(format, args...))
	if strings.Contains(line, l.substr) {
		*l.dst = append(*l.dst, line)
	}
}

// eventsNew wraps an element as an event occurrence.
func eventsNew(payload *xmltree.Node) events.Event { return events.New(payload) }

// TestDatalogQueryComponent runs a rule whose query component is LP-style:
// the Datalog service extends the bindings by matching.
func TestDatalogQueryComponent(t *testing.T) {
	prog := datalog.MustParse(`
		owns("John Doe", "VW Golf").
		owns("John Doe", "VW Passat").
		owns("Jane Roe", "Twingo").
	`)
	sys, err := system.NewLocal(system.Config{Datalog: prog})
	if err != nil {
		t.Fatal(err)
	}
	rule := ruleml.MustParse(`<eca:rule xmlns:eca="` + protocol.ECANS + `"
	    xmlns:t="http://t/" id="dl">
	  <eca:event><t:booking person="$Person"/></eca:event>
	  <eca:query binds="Car">
	    <eca:opaque language="` + services.DatalogNS + `">owns(Person, Car)</eca:opaque>
	  </eca:query>
	  <eca:action><t:offer person="$Person" car="$Car"/></eca:action>
	</eca:rule>`)
	if err := sys.Engine.Register(rule); err != nil {
		t.Fatal(err)
	}
	ev := xmltree.NewElement("http://t/", "booking")
	ev.SetAttr("", "person", "John Doe")
	sys.Stream.Publish(eventsNew(ev))
	sent := sys.Notifier.Sent()
	if len(sent) != 2 {
		t.Fatalf("offers = %d, want 2 (one per owned car)\n%v", len(sent), sent)
	}
	cars := map[string]bool{}
	for _, s := range sent {
		cars[s.Message.AttrValue("", "car")] = true
	}
	if !cars["VW Golf"] || !cars["VW Passat"] {
		t.Errorf("cars = %v", cars)
	}
}

// TestLocalTestComponent checks the σ semantics of the test component.
func TestLocalTestComponent(t *testing.T) {
	sys, err := system.NewLocal(system.Config{})
	if err != nil {
		t.Fatal(err)
	}
	rule := ruleml.MustParse(`<eca:rule xmlns:eca="` + protocol.ECANS + `" xmlns:t="http://t/" id="tst">
	  <eca:event><t:reading sensor="$S" value="$V"/></eca:event>
	  <eca:test>$V > 100</eca:test>
	  <eca:action><t:alert sensor="$S" value="$V"/></eca:action>
	</eca:rule>`)
	if err := sys.Engine.Register(rule); err != nil {
		t.Fatal(err)
	}
	pub := func(s, v string) {
		e := xmltree.NewElement("http://t/", "reading")
		e.SetAttr("", "sensor", s)
		e.SetAttr("", "value", v)
		sys.Stream.Publish(eventsNew(e))
	}
	pub("t1", "99")
	pub("t2", "101")
	pub("t3", "250")
	sent := sys.Notifier.Sent()
	if len(sent) != 2 {
		t.Fatalf("alerts = %d, want 2\n%v", len(sent), sent)
	}
	st := sys.Engine.Stats()
	if st.InstancesDied != 1 {
		t.Errorf("died = %d, want 1 (the 99 reading)", st.InstancesDied)
	}
}

// TestEventBoundToVariable checks binding the detected event itself via
// <eca:variable> around the event component.
func TestEventBoundToVariable(t *testing.T) {
	sys, err := system.NewLocal(system.Config{})
	if err != nil {
		t.Fatal(err)
	}
	rule := ruleml.MustParse(`<eca:rule xmlns:eca="` + protocol.ECANS + `" xmlns:t="http://t/" id="ev">
	  <eca:variable name="Evt">
	    <eca:event><t:ping from="$F"/></eca:event>
	  </eca:variable>
	  <eca:action><t:echo from="$F">$Evt</t:echo></eca:action>
	</eca:rule>`)
	if err := sys.Engine.Register(rule); err != nil {
		t.Fatal(err)
	}
	e := xmltree.NewElement("http://t/", "ping")
	e.SetAttr("", "from", "me")
	sys.Stream.Publish(eventsNew(e))
	sent := sys.Notifier.Sent()
	if len(sent) != 1 {
		t.Fatalf("echo = %v", sent)
	}
	inner := sent[0].Message.ChildElements()
	if len(inner) != 1 || inner[0].Name.Local != "ping" {
		t.Errorf("event fragment not spliced: %s", sent[0].Message)
	}
}

// TestDistributedDeployment runs the same car-rental flow with every
// component service behind a real HTTP endpoint (Fig. 3).
func TestDistributedDeployment(t *testing.T) {
	sc, cleanup, err := travel.NewScenario(system.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	srv := httptest.NewServer(sc.Mux(xmltree.MustParse(travel.ClassesXML), travel.Namespaces()))
	defer srv.Close()
	if err := sc.Distribute(srv.URL); err != nil {
		t.Fatal(err)
	}
	// Re-register a second copy of the rule; its components now travel
	// over HTTP.
	rule, err := ruleml.ParseString(travel.RuleXML(sc.StoreURL, sc.XQueryURL))
	if err != nil {
		t.Fatal(err)
	}
	rule.ID = "car-rental-remote"
	if err := sc.Engine.Register(rule); err != nil {
		t.Fatal(err)
	}
	sc.Notifier.Reset()
	sc.Book("John Doe", "Munich", "Paris")
	sent := sc.Notifier.Sent()
	// Both rules (local wiring + remote wiring) fire once each.
	if len(sent) != 2 {
		t.Fatalf("notifications = %d, want 2\n%v", len(sent), sent)
	}
	for _, s := range sent {
		if s.Message.AttrValue("", "car") != "Opel Astra" {
			t.Errorf("car = %q", s.Message.AttrValue("", "car"))
		}
	}
}

// TestRegistrationErrors covers rejection paths.
func TestRegistrationErrors(t *testing.T) {
	sys, err := system.NewLocal(system.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Unbound variable in action.
	bad := ruleml.MustParse(`<eca:rule xmlns:eca="` + protocol.ECANS + `" xmlns:t="http://t/" id="bad">
	  <eca:event><t:e/></eca:event>
	  <eca:action><t:a x="$Free"/></eca:action>
	</eca:rule>`)
	if err := sys.Engine.Register(bad); err == nil {
		t.Error("unbound action variable should be rejected")
	}
	// Duplicate id.
	ok := ruleml.MustParse(`<eca:rule xmlns:eca="` + protocol.ECANS + `" xmlns:t="http://t/" id="dup">
	  <eca:event><t:e/></eca:event>
	  <eca:action><t:a/></eca:action>
	</eca:rule>`)
	if err := sys.Engine.Register(ok); err != nil {
		t.Fatal(err)
	}
	dup := ruleml.MustParse(`<eca:rule xmlns:eca="` + protocol.ECANS + `" xmlns:t="http://t/" id="dup">
	  <eca:event><t:e/></eca:event>
	  <eca:action><t:a/></eca:action>
	</eca:rule>`)
	if err := sys.Engine.Register(dup); err == nil {
		t.Error("duplicate rule id should be rejected")
	}
}

// TestUnregisterStopsDetection verifies rule withdrawal.
func TestUnregisterStopsDetection(t *testing.T) {
	sys, err := system.NewLocal(system.Config{})
	if err != nil {
		t.Fatal(err)
	}
	rule := ruleml.MustParse(`<eca:rule xmlns:eca="` + protocol.ECANS + `" xmlns:t="http://t/" id="u">
	  <eca:event><t:e/></eca:event>
	  <eca:action><t:a/></eca:action>
	</eca:rule>`)
	if err := sys.Engine.Register(rule); err != nil {
		t.Fatal(err)
	}
	sys.Stream.Publish(eventsNew(xmltree.NewElement("http://t/", "e")))
	if len(sys.Notifier.Sent()) != 1 {
		t.Fatal("rule should fire before unregistration")
	}
	if info, ok := sys.Engine.RuleInfo("", "u"); !ok || info.ID != "u" || info.Firings != 1 || info.Registered.IsZero() {
		t.Errorf("RuleInfo(u) = %+v, %v", info, ok)
	}
	if _, ok := sys.Engine.RuleInfo("", "absent"); ok {
		t.Error("RuleInfo of an unknown id should report false")
	}
	if err := sys.Engine.Unregister("", "u"); err != nil {
		t.Fatal(err)
	}
	sys.Stream.Publish(eventsNew(xmltree.NewElement("http://t/", "e")))
	if len(sys.Notifier.Sent()) != 1 {
		t.Error("rule fired after unregistration")
	}
	if err := sys.Engine.Unregister("", "u"); !errors.Is(err, engine.ErrNoRule) {
		t.Errorf("double unregister = %v, want an error wrapping ErrNoRule", err)
	}
}

// TestRuleChaining: an act:raise action publishes a new event that triggers
// a second rule.
func TestRuleChaining(t *testing.T) {
	sys, err := system.NewLocal(system.Config{})
	if err != nil {
		t.Fatal(err)
	}
	r1 := ruleml.MustParse(`<eca:rule xmlns:eca="` + protocol.ECANS + `"
	    xmlns:t="http://t/" xmlns:act="` + services.ActionNS + `" id="chain-1">
	  <eca:event><t:order id="$Id"/></eca:event>
	  <eca:action><act:raise><t:invoice order="$Id"/></act:raise></eca:action>
	</eca:rule>`)
	r2 := ruleml.MustParse(`<eca:rule xmlns:eca="` + protocol.ECANS + `" xmlns:t="http://t/" id="chain-2">
	  <eca:event><t:invoice order="$O"/></eca:event>
	  <eca:action><t:mail order="$O"/></eca:action>
	</eca:rule>`)
	if err := sys.Engine.Register(r1); err != nil {
		t.Fatal(err)
	}
	if err := sys.Engine.Register(r2); err != nil {
		t.Fatal(err)
	}
	e := xmltree.NewElement("http://t/", "order")
	e.SetAttr("", "id", "42")
	sys.Stream.Publish(eventsNew(e))
	sent := sys.Notifier.Sent()
	if len(sent) != 1 || sent[0].Message.Name.Local != "mail" || sent[0].Message.AttrValue("", "order") != "42" {
		t.Fatalf("chained rule output = %v", sent)
	}
}

// TestStoreUpdateAction: actions on the database level (store:insert).
func TestStoreUpdateAction(t *testing.T) {
	sys, err := system.NewLocal(system.Config{})
	if err != nil {
		t.Fatal(err)
	}
	sys.Store.Put("log.xml", xmltree.MustParse(`<log/>`))
	rule := ruleml.MustParse(`<eca:rule xmlns:eca="` + protocol.ECANS + `"
	    xmlns:t="http://t/" xmlns:store="` + services.StoreNS + `" id="st">
	  <eca:event><t:sale item="$I" amount="$A"/></eca:event>
	  <eca:action><store:insert doc="log.xml"><entry item="$I" amount="$A"/></store:insert></eca:action>
	</eca:rule>`)
	if err := sys.Engine.Register(rule); err != nil {
		t.Fatal(err)
	}
	e := xmltree.NewElement("http://t/", "sale")
	e.SetAttr("", "item", "golf").SetAttr("", "amount", "3")
	sys.Stream.Publish(eventsNew(e))
	doc, _ := sys.Store.Get("log.xml")
	entries := doc.Root().ChildElementsNamed("", "entry")
	if len(entries) != 1 || entries[0].AttrValue("", "item") != "golf" {
		t.Fatalf("store update = %s", doc)
	}
}
