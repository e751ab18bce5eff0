package travel

import (
	"strings"
	"testing"

	"repro/internal/ruleml"
	"repro/internal/system"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

func TestDocumentsParse(t *testing.T) {
	for name, src := range map[string]string{
		"cars": CarsXML, "classes": ClassesXML, "availability": AvailabilityXML,
	} {
		if _, err := xmltree.ParseString(src); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestPaperValues(t *testing.T) {
	// The data must encode the paper's example exactly: John Doe owns two
	// cars of classes C and B; Paris offers B and D.
	cars := xmltree.MustParse(CarsXML)
	models, err := xpath.MustCompile(`//owner[@name='John Doe']/car/model`).EvalNodes(&xpath.Context{Node: cars})
	if err != nil {
		t.Fatal(err)
	}
	if len(models) != 2 || models[0].TextContent() != "VW Golf" || models[1].TextContent() != "VW Passat" {
		t.Fatalf("john's cars = %v", models)
	}
	classes := xmltree.MustParse(ClassesXML)
	for model, class := range map[string]string{"VW Golf": "C", "VW Passat": "B"} {
		got, err := xpath.MustCompile(`string(//entry[@model='` + model + `']/@class)`).EvalString(&xpath.Context{Node: classes})
		if err != nil || got != class {
			t.Errorf("class(%s) = %q, %v", model, got, err)
		}
	}
	avail := xmltree.MustParse(AvailabilityXML)
	parisClasses, err := xpath.MustCompile(`//city[@name='Paris']/car/@class`).EvalNodes(&xpath.Context{Node: avail})
	if err != nil {
		t.Fatal(err)
	}
	if len(parisClasses) != 2 || parisClasses[0].TextContent() != "B" || parisClasses[1].TextContent() != "D" {
		t.Fatalf("paris classes = %v", parisClasses)
	}
}

func TestEventBuilders(t *testing.T) {
	b := Booking("John Doe", "Munich", "Paris")
	if b.Name.Space != NS || b.AttrValue("", "to") != "Paris" {
		t.Errorf("booking = %s", b)
	}
	// The element must serialize with its declared prefix and reparse.
	doc, err := xmltree.ParseString(b.String())
	if err != nil {
		t.Fatal(err)
	}
	if doc.Root().Name != b.Name {
		t.Errorf("round trip = %v", doc.Root().Name)
	}
	c := Cancellation("Jane")
	if c.Name.Local != "cancellation" || c.AttrValue("", "person") != "Jane" {
		t.Errorf("cancellation = %s", c)
	}
}

func TestRuleXMLParsesAndValidates(t *testing.T) {
	rule, err := ruleml.ParseString(RuleXML("http://store/", "http://xq/"))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := system.NewLocal(system.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if _, _, err := sys.Engine.Analyze(rule); err != nil {
		t.Fatal(err)
	}
	if rule.ID != "car-rental" || len(rule.Steps) != 3 || len(rule.Actions) != 1 {
		t.Errorf("structure = id=%q steps=%d actions=%d", rule.ID, len(rule.Steps), len(rule.Actions))
	}
	// Opaque components point at the endpoints we passed.
	if rule.Steps[1].Service != "http://store/" || rule.Steps[2].Service != "http://xq/" {
		t.Errorf("endpoints = %q, %q", rule.Steps[1].Service, rule.Steps[2].Service)
	}
}

func TestScenarioMultipleBookings(t *testing.T) {
	sc, cleanup, err := NewScenario(system.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	sc.Book("John Doe", "Munich", "Paris")
	sc.Book("John Doe", "Munich", "Paris")
	sc.Book("Jane Roe", "Berlin", "Paris") // Twingo is class A; Paris has B and D → no offer
	sent := sc.Notifier.Sent()
	if len(sent) != 2 {
		t.Fatalf("offers = %d, want 2\n%v", len(sent), sent)
	}
	for _, n := range sent {
		if n.Message.AttrValue("", "person") != "John Doe" {
			t.Errorf("offer to %q", n.Message.AttrValue("", "person"))
		}
	}
	st := sc.Engine.Stats()
	if st.InstancesCreated != 3 || st.InstancesDied != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestLoadStore(t *testing.T) {
	sc, cleanup, err := NewScenario(system.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	uris := sc.Store.URIs()
	if len(uris) != 2 || !strings.Contains(uris[0], "availability") {
		t.Errorf("store uris = %v", uris)
	}
}
