package ontology

import (
	"strings"
	"testing"

	"repro/internal/grh"
	"repro/internal/protocol"
	"repro/internal/rdf"
	"repro/internal/ruleml"
	"repro/internal/services"
	"repro/internal/snoop"
	"repro/internal/system"
)

func wiredGraph(t *testing.T) (*rdf.Graph, *system.System) {
	t.Helper()
	sys, err := system.NewLocal(system.Config{})
	if err != nil {
		t.Fatal(err)
	}
	g := Base()
	DescribeRegistry(g, sys.GRH)
	return g, sys
}

// TestFig2Hierarchy checks the language-family hierarchy.
func TestFig2Hierarchy(t *testing.T) {
	g, sys := wiredGraph(t)
	// All four families are subclasses of ComponentLanguage.
	closure := g.SubClassClosure(ClassComponentLanguage)
	for _, fam := range []rdf.Term{ClassEventLanguage, ClassQueryLanguage, ClassTestLanguage, ClassActionLanguage} {
		if !closure[fam] {
			t.Errorf("%v not in ComponentLanguage closure", fam)
		}
	}
	// The description lists exactly the languages NewLocal registers, each
	// in the family of its kind: SNOOP and the matcher are event
	// languages, XQuery and Datalog query languages.
	want := map[string]rdf.Term{
		services.MatcherNS: ClassEventLanguage,
		snoop.NS:           ClassEventLanguage,
		services.XQueryNS:  ClassQueryLanguage,
		services.DatalogNS: ClassQueryLanguage,
		services.TestNS:    ClassTestLanguage,
		services.ActionNS:  ClassActionLanguage,
	}
	if got := sys.GRH.Languages(); len(got) != len(want) {
		t.Errorf("NewLocal registers %v, want the %d languages of its table", got, len(want))
	}
	for _, lang := range sys.GRH.Languages() {
		if _, ok := want[lang]; !ok {
			t.Errorf("NewLocal registers %s, which is not in its table", lang)
		}
	}
	all := LanguagesInFamily(g, ClassLanguage)
	if len(all) != len(want) {
		t.Errorf("described languages = %v, want exactly %d", all, len(want))
	}
	for _, l := range all {
		fam, ok := want[l.Value]
		if !ok || !containsIRI(LanguagesInFamily(g, fam), l.Value) {
			t.Errorf("described language %v is not registered, or not in the family of its kind", l)
		}
	}
}

func containsIRI(ts []rdf.Term, iri string) bool {
	for _, t := range ts {
		if t.Kind == rdf.IRI && t.Value == iri {
			return true
		}
	}
	return false
}

// TestFig1RuleDescription models the sample rule as resources and
// validates it against the ontology.
func TestFig1RuleDescription(t *testing.T) {
	g, _ := wiredGraph(t)
	rule := ruleml.MustParse(`<eca:rule xmlns:eca="` + protocol.ECANS + `"
	    xmlns:t="http://t/" xmlns:xq="` + services.XQueryNS + `" id="fig1">
	  <eca:event><t:booking person="$P"/></eca:event>
	  <eca:variable name="Car">
	    <eca:query><xq:query>for $c in doc('d')//car[@p=$P] return $c</xq:query></eca:query>
	  </eca:variable>
	  <eca:test>$Car != ''</eca:test>
	  <eca:action><t:inform p="$P"/></eca:action>
	</eca:rule>`)
	res := DescribeRule(g, rule)
	typ := rdf.NewIRI(rdf.RDFType)
	if got := g.Match(&res, &typ, &ClassRule); len(got) != 1 {
		t.Fatal("rule resource missing")
	}
	comps := g.Match(&res, &PropHasComponent, nil)
	if len(comps) != 4 {
		t.Fatalf("components = %d, want 4", len(comps))
	}
	// The query component is associated with the XQuery language resource.
	qComp := ComponentIRI("fig1", "query[1]")
	langs := g.Match(&qComp, &PropUsesLanguage, nil)
	if len(langs) != 1 || langs[0].O.Value != services.XQueryNS {
		t.Errorf("query language = %v", langs)
	}
	// The bound variable is recorded.
	vars := g.Match(&qComp, &PropBindsVariable, nil)
	if len(vars) != 1 || vars[0].O.Value != "Car" {
		t.Errorf("bound variable = %v", vars)
	}
	if err := Validate(g, "fig1"); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

// TestValidateRejectsFamilyMismatch: a rule whose query component uses an
// event language fails ontology validation.
func TestValidateRejectsFamilyMismatch(t *testing.T) {
	g, _ := wiredGraph(t)
	rule := ruleml.MustParse(`<eca:rule xmlns:eca="` + protocol.ECANS + `"
	    xmlns:t="http://t/" xmlns:snoop="` + snoop.NS + `" id="mismatch">
	  <eca:event><t:e/></eca:event>
	  <eca:query binds="X"><snoop:seq>bogus</snoop:seq></eca:query>
	  <eca:action><t:a/></eca:action>
	</eca:rule>`)
	DescribeRule(g, rule)
	err := Validate(g, "mismatch")
	if err == nil || !strings.Contains(err.Error(), "QueryLanguage") {
		t.Fatalf("expected family mismatch, got %v", err)
	}
}

// TestValidateRejectsUndeclaredQueryLanguage: a completely unknown
// namespace is tolerated as a domain vocabulary on events and actions, but
// not on query components.
func TestValidateRejectsUndeclaredQueryLanguage(t *testing.T) {
	g, _ := wiredGraph(t)
	rule := ruleml.MustParse(`<eca:rule xmlns:eca="` + protocol.ECANS + `"
	    xmlns:t="http://t/" xmlns:my="http://mystery/" id="undeclared">
	  <eca:event><t:e/></eca:event>
	  <eca:query binds="X"><my:q>?</my:q></eca:query>
	  <eca:action><t:a/></eca:action>
	</eca:rule>`)
	DescribeRule(g, rule)
	if err := Validate(g, "undeclared"); err == nil {
		t.Fatal("undeclared query language should fail validation")
	}
}

func TestValidateUnknownRule(t *testing.T) {
	g, _ := wiredGraph(t)
	if err := Validate(g, "ghost"); err == nil {
		t.Error("undescribed rule should fail validation")
	}
}

func TestServiceEndpoint(t *testing.T) {
	g := Base()
	DescribeLanguage(g, grh.Descriptor{
		Language:       "http://lang/x",
		Name:           "X language",
		Kinds:          []ruleml.ComponentKind{ruleml.QueryComponent},
		FrameworkAware: true,
		Endpoint:       "http://host:1234/x",
	})
	ep, ok := ServiceEndpoint(g, "http://lang/x")
	if !ok || ep != "http://host:1234/x" {
		t.Errorf("endpoint = %q, %v", ep, ok)
	}
	if _, ok := ServiceEndpoint(g, "http://lang/none"); ok {
		t.Error("unknown language should have no endpoint")
	}
}

// TestTurtleExport: the description round-trips through Turtle.
func TestTurtleExport(t *testing.T) {
	g, _ := wiredGraph(t)
	rule := ruleml.MustParse(`<eca:rule xmlns:eca="` + protocol.ECANS + `" xmlns:t="http://t/" id="ttl">
	  <eca:event><t:e/></eca:event>
	  <eca:action><t:a/></eca:action>
	</eca:rule>`)
	DescribeRule(g, rule)
	var b strings.Builder
	if err := rdf.WriteTurtle(&b, g.Triples(), map[string]string{"eca": NS, "rules": RulesNS}); err != nil {
		t.Fatal(err)
	}
	ts, err := rdf.ParseTurtleString(b.String())
	if err != nil {
		t.Fatalf("turtle export does not reparse: %v", err)
	}
	if len(ts) != g.Len() {
		t.Errorf("round trip: %d triples, want %d", len(ts), g.Len())
	}
}
