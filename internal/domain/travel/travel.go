// Package travel holds the application domain of the paper's running
// example (Section 4): the car-rental company's vocabulary, the Web
// documents the rule queries (a customer-cars document, a car-class
// mapping, per-city availability), the full Fig. 4 rule, and the
// travel:booking event. Values match the paper: John Doe books a flight
// Munich → Paris; he owns a Golf (class C) and a Passat (class B); Paris
// has cars of classes B and D available; the natural join leaves class B.
package travel

import (
	"net/http/httptest"

	"repro/internal/events"
	"repro/internal/protocol"
	"repro/internal/ruleml"
	"repro/internal/services"
	"repro/internal/system"
	"repro/internal/xmltree"
)

// NS is the travel domain namespace: its atomic events (travel:booking,
// travel:cancellation) and actions (travel:inform).
const NS = "http://www.semwebtech.org/domains/2006/travel"

// Document URIs in the example's document store.
const (
	// CarsDoc lists each customer's own cars (queried by the first,
	// framework-aware XQuery component — Fig. 7/8).
	CarsDoc = "http://example.org/data/cars.xml"
	// AvailDoc lists the cars available per destination city (queried by
	// the log:answers-generating component — Fig. 10).
	AvailDoc = "http://example.org/data/availability.xml"
)

// CarsXML is the customer-cars document: John Doe owns two cars.
const CarsXML = `<owners>
  <owner name="John Doe">
    <car><model>VW Golf</model><year>2003</year></car>
    <car><model>VW Passat</model><year>2005</year></car>
  </owner>
  <owner name="Jane Roe">
    <car><model>Twingo</model><year>2007</year></car>
  </owner>
</owners>`

// ClassesXML maps car models to rental classes; it lives in the
// framework-UNaware XML store (the eXist stand-in of Fig. 9).
const ClassesXML = `<classes>
  <entry model="VW Golf" class="C"/>
  <entry model="VW Passat" class="B"/>
  <entry model="Twingo" class="A"/>
</classes>`

// AvailabilityXML lists the cars available per city: Paris offers classes
// B and D.
const AvailabilityXML = `<availability>
  <city name="Paris">
    <car class="B"><name>Opel Astra</name></car>
    <car class="D"><name>Renault Espace</name></car>
  </city>
  <city name="Rome">
    <car class="A"><name>Fiat Panda</name></car>
    <car class="C"><name>VW Golf</name></car>
  </city>
</availability>`

// Booking builds a travel:booking event element.
func Booking(person, from, to string) *xmltree.Node {
	e := xmltree.NewElement(NS, "booking")
	e.SetAttr("xmlns", "travel", NS)
	e.SetAttr("", "person", person)
	e.SetAttr("", "from", from)
	e.SetAttr("", "to", to)
	return e
}

// RuleXML renders the complete Fig. 4 car-rental rule. opaqueStoreURL is
// the endpoint of the framework-unaware class store (Fig. 9) and
// opaqueXQueryURL the raw XQuery node generating log:answers (Fig. 10);
// the remaining components go through the registry.
func RuleXML(opaqueStoreURL, opaqueXQueryURL string) string {
	return `<eca:rule xmlns:eca="` + protocol.ECANS + `"
    xmlns:travel="` + NS + `"
    xmlns:xq="` + services.XQueryNS + `"
    id="car-rental">

  <!-- ON a booking by a person ... -->
  <eca:event>
    <travel:booking person="$Person" to="$Dest"/>
  </eca:event>

  <!-- ... query the person's own cars (framework-aware XQuery, Fig. 7/8) -->
  <eca:variable name="OwnCar">
    <eca:query>
      <xq:query>for $c in doc('` + CarsDoc + `')//owner[@name=$Person]/car
        return $c/model/text()</xq:query>
    </eca:query>
  </eca:variable>

  <!-- ... map each car to its class (framework-UNaware HTTP GET, Fig. 9) -->
  <eca:variable name="Class">
    <eca:query>
      <eca:opaque language="` + services.XQueryNS + `-opaque"
                  uri="` + opaqueStoreURL + `">//entry[@model='$OwnCar']/@class</eca:opaque>
    </eca:query>
  </eca:variable>

  <!-- ... cars available at the destination, as generated log:answers (Fig. 10) -->
  <eca:query binds="Class Avail">
    <eca:opaque language="` + services.XQueryNS + `-opaque"
                uri="` + opaqueXQueryURL + `">` +
		`&lt;log:answers xmlns:log="` + protocol.LogNS + `"&gt;{` +
		`for $c in doc('` + AvailDoc + `')//city[@name='$Dest']/car ` +
		`return &lt;log:answer&gt;` +
		`&lt;log:variable name="Class"&gt;{string($c/@class)}&lt;/log:variable&gt;` +
		`&lt;log:variable name="Avail"&gt;{$c/name/text()}&lt;/log:variable&gt;` +
		`&lt;/log:answer&gt;}&lt;/log:answers&gt;</eca:opaque>
  </eca:query>

  <!-- ... inform the customer about suitable cars (one message per tuple) -->
  <eca:action>
    <travel:inform person="$Person" ownCar="$OwnCar" class="$Class" car="$Avail"/>
  </eca:action>
</eca:rule>`
}

// Namespaces is the prefix map offered to query services for this domain.
func Namespaces() map[string]string {
	return map[string]string{
		"travel": NS,
		"log":    protocol.LogNS,
	}
}

// LoadStore populates a document store with the example's documents.
func LoadStore(store *services.DocStore) {
	store.Put(CarsDoc, xmltree.MustParse(CarsXML))
	store.Put(AvailDoc, xmltree.MustParse(AvailabilityXML))
}

// Scenario is a fully wired car-rental deployment: a local system loaded
// with the example documents plus the two framework-unaware HTTP nodes.
type Scenario struct {
	*system.System
	// StoreURL is the framework-unaware XPath store endpoint (classes).
	StoreURL string
	// XQueryURL is the raw XQuery node endpoint (availability).
	XQueryURL string
	// Rule is the registered car-rental rule id.
	Rule string
}

// Book publishes a booking event on the scenario's stream.
func (s *Scenario) Book(person, from, to string) events.Event {
	return s.Stream.Publish(events.New(Booking(person, from, to)))
}

// NewScenario wires the full running example: a local system with the
// example documents, the two framework-unaware HTTP nodes on loopback
// listeners, and the car-rental rule registered. Call the returned cleanup
// to release the listeners.
func NewScenario(cfg system.Config) (*Scenario, func(), error) {
	if cfg.Namespaces == nil {
		cfg.Namespaces = Namespaces()
	}
	sys, err := system.NewLocal(cfg)
	if err != nil {
		return nil, nil, err
	}
	LoadStore(sys.Store)

	classStore := services.NewOpaqueXMLStore(xmltree.MustParse(ClassesXML), nil).SetObs(cfg.Obs)
	srvClasses := httptest.NewServer(classStore)
	srvXQuery := httptest.NewServer(services.NewOpaqueXQueryNode(sys.Store, cfg.Namespaces).SetObs(cfg.Obs))
	cleanup := func() {
		srvClasses.Close()
		srvXQuery.Close()
	}

	rule, err := ruleml.ParseString(RuleXML(srvClasses.URL, srvXQuery.URL))
	if err != nil {
		cleanup()
		return nil, nil, err
	}
	if err := sys.Engine.Register(rule); err != nil {
		cleanup()
		return nil, nil, err
	}
	return &Scenario{
		System:    sys,
		StoreURL:  srvClasses.URL,
		XQueryURL: srvXQuery.URL,
		Rule:      rule.ID,
	}, cleanup, nil
}
