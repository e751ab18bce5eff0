// Package ontology models Figures 1 and 2 of the paper: rules and their
// components are objects of the Semantic Web, every component is associated
// with its language (a resource identified by a URI), and languages form a
// hierarchy of families (ECA > event/query/test/action languages >
// application-domain vocabularies) with pointers to the Web Services
// implementing them.
//
// The model lives in an RDF graph (internal/rdf), so it can be queried with
// basic graph patterns, serialized as Turtle, and checked: Validate flags
// rules whose components use a language outside the component's family.
package ontology

import (
	"fmt"

	"repro/internal/grh"
	"repro/internal/rdf"
	"repro/internal/ruleml"
)

// NS is the ECA ontology namespace.
const NS = "http://www.semwebtech.org/ontology/2006/eca#"

// RulesNS is the namespace rule and component instances are minted in.
const RulesNS = "http://www.semwebtech.org/rules/"

// Class IRIs (Fig. 1 and Fig. 2).
var (
	ClassRule              = rdf.NewIRI(NS + "Rule")
	ClassEventComponent    = rdf.NewIRI(NS + "EventComponent")
	ClassQueryComponent    = rdf.NewIRI(NS + "QueryComponent")
	ClassTestComponent     = rdf.NewIRI(NS + "TestComponent")
	ClassActionComponent   = rdf.NewIRI(NS + "ActionComponent")
	ClassLanguage          = rdf.NewIRI(NS + "Language")
	ClassComponentLanguage = rdf.NewIRI(NS + "ComponentLanguage")
	ClassEventLanguage     = rdf.NewIRI(NS + "EventLanguage")
	ClassQueryLanguage     = rdf.NewIRI(NS + "QueryLanguage")
	ClassTestLanguage      = rdf.NewIRI(NS + "TestLanguage")
	ClassActionLanguage    = rdf.NewIRI(NS + "ActionLanguage")
	ClassService           = rdf.NewIRI(NS + "Service")
)

// Property IRIs.
var (
	PropHasComponent   = rdf.NewIRI(NS + "hasComponent")
	PropUsesLanguage   = rdf.NewIRI(NS + "usesLanguage")
	PropBindsVariable  = rdf.NewIRI(NS + "bindsVariable")
	PropImplementedBy  = rdf.NewIRI(NS + "implementedBy")
	PropEndpoint       = rdf.NewIRI(NS + "endpoint")
	PropFrameworkAware = rdf.NewIRI(NS + "frameworkAware")
	PropOrder          = rdf.NewIRI(NS + "order")
)

// componentClass maps rule component kinds to their ontology class and the
// language family legal for them.
var componentClass = map[ruleml.ComponentKind]struct{ comp, lang rdf.Term }{
	ruleml.EventComponent:  {ClassEventComponent, ClassEventLanguage},
	ruleml.QueryComponent:  {ClassQueryComponent, ClassQueryLanguage},
	ruleml.TestComponent:   {ClassTestComponent, ClassTestLanguage},
	ruleml.ActionComponent: {ClassActionComponent, ClassActionLanguage},
}

// Base returns the language-family hierarchy of Fig. 2 as an RDF graph:
// the four component-language families below ComponentLanguage below
// Language.
func Base() *rdf.Graph {
	g := rdf.NewGraph()
	sub := rdf.NewIRI(rdf.RDFSSubClassOf)
	for _, family := range []rdf.Term{ClassEventLanguage, ClassQueryLanguage, ClassTestLanguage, ClassActionLanguage} {
		g.Add(rdf.Triple{S: family, P: sub, O: ClassComponentLanguage})
	}
	g.Add(rdf.Triple{S: ClassComponentLanguage, P: sub, O: ClassLanguage})
	for _, comp := range []rdf.Term{ClassEventComponent, ClassQueryComponent, ClassTestComponent, ClassActionComponent} {
		g.Add(rdf.Triple{S: comp, P: sub, O: rdf.NewIRI(NS + "Component")})
	}
	return g
}

// DescribeLanguage records a language resource and its implementing
// service (the lower half of Fig. 1), classified into the family for the
// component kinds the service accepts.
func DescribeLanguage(g *rdf.Graph, d grh.Descriptor) {
	lang := rdf.NewIRI(d.Language)
	typ := rdf.NewIRI(rdf.RDFType)
	kinds := d.Kinds
	if len(kinds) == 0 {
		kinds = []ruleml.ComponentKind{ruleml.EventComponent, ruleml.QueryComponent, ruleml.TestComponent, ruleml.ActionComponent}
	}
	for _, k := range kinds {
		g.Add(rdf.Triple{S: lang, P: typ, O: componentClass[k].lang})
	}
	if d.Name != "" {
		g.Add(rdf.Triple{S: lang, P: rdf.NewIRI(rdf.RDFSLabel), O: rdf.NewLiteral(d.Name)})
	}
	svc := rdf.NewIRI(d.Language + "#service")
	g.Add(rdf.Triple{S: lang, P: PropImplementedBy, O: svc})
	g.Add(rdf.Triple{S: svc, P: typ, O: ClassService})
	if d.Endpoint != "" {
		g.Add(rdf.Triple{S: svc, P: PropEndpoint, O: rdf.NewLiteral(d.Endpoint)})
	}
	aware := "false"
	if d.FrameworkAware {
		aware = "true"
	}
	g.Add(rdf.Triple{S: svc, P: PropFrameworkAware, O: rdf.NewTypedLiteral(aware, rdf.XSDNS+"boolean")})
}

// DescribeRegistry records every language registered in a GRH.
func DescribeRegistry(g *rdf.Graph, reg *grh.GRH) {
	for _, lang := range reg.Languages() {
		if d, ok := reg.Lookup(lang); ok {
			DescribeLanguage(g, *d)
		}
	}
}

// RuleIRI returns the resource IRI minted for a rule id.
func RuleIRI(ruleID string) rdf.Term { return rdf.NewIRI(RulesNS + ruleID) }

// ComponentIRI returns the resource IRI minted for a component of a rule.
func ComponentIRI(ruleID, componentID string) rdf.Term {
	return rdf.NewIRI(RulesNS + ruleID + "#" + componentID)
}

// DescribeRule records a parsed rule as resources per the upper half of
// Fig. 1: the rule, its components with evaluation order, each component's
// language association and bound variable.
func DescribeRule(g *rdf.Graph, r *ruleml.Rule) rdf.Term {
	typ := rdf.NewIRI(rdf.RDFType)
	ruleRes := RuleIRI(r.ID)
	g.Add(rdf.Triple{S: ruleRes, P: typ, O: ClassRule})
	for i, c := range r.Components() {
		cRes := ComponentIRI(r.ID, c.ID)
		g.Add(rdf.Triple{S: ruleRes, P: PropHasComponent, O: cRes})
		g.Add(rdf.Triple{S: cRes, P: typ, O: componentClass[c.Kind].comp})
		g.Add(rdf.Triple{S: cRes, P: PropOrder, O: rdf.NewTypedLiteral(fmt.Sprint(i), rdf.XSDNS+"integer")})
		if c.Language != "" {
			g.Add(rdf.Triple{S: cRes, P: PropUsesLanguage, O: rdf.NewIRI(c.Language)})
		}
		if c.Variable != "" {
			g.Add(rdf.Triple{S: cRes, P: PropBindsVariable, O: rdf.NewLiteral(c.Variable)})
		}
	}
	return ruleRes
}

// Validate checks a described rule against the ontology: every component's
// language must be declared (rdf:type, possibly via rdfs:subClassOf) in
// the family legal for the component kind. Components without a language
// association (bare domain patterns handled by registry defaults) pass.
func Validate(g *rdf.Graph, ruleID string) error {
	typ := rdf.NewIRI(rdf.RDFType)
	ruleRes := RuleIRI(ruleID)
	comps := g.Match(&ruleRes, &PropHasComponent, nil)
	if len(comps) == 0 {
		return fmt.Errorf("ontology: rule %s has no described components", ruleID)
	}
	for _, ct := range comps {
		comp := ct.O
		kinds := g.Match(&comp, &typ, nil)
		var family rdf.Term
		for _, kt := range kinds {
			for _, cc := range componentClass {
				if kt.O == cc.comp {
					family = cc.lang
				}
			}
		}
		if family == (rdf.Term{}) {
			return fmt.Errorf("ontology: component %s has no component class", comp)
		}
		langs := g.Match(&comp, &PropUsesLanguage, nil)
		for _, lt := range langs {
			if isInFamily(g, lt.O, family) {
				continue
			}
			// Per Fig. 2, application domains contribute atomic events and
			// atomic actions directly: a namespace with no language
			// declaration at all is read as a domain vocabulary, legal for
			// event and action components (the registry defaults — atomic
			// matcher, action executor — handle them).
			typIRI := rdf.NewIRI(rdf.RDFType)
			langO := lt.O
			undeclared := len(g.Match(&langO, &typIRI, nil)) == 0
			if undeclared && (family == ClassEventLanguage || family == ClassActionLanguage) {
				continue
			}
			return fmt.Errorf("ontology: component %s uses %s, which is not a declared %s",
				comp.Value, lt.O.Value, family.Value[len(NS):])
		}
	}
	return nil
}

// isInFamily reports whether lang has rdf:type family, directly or through
// a declared subclass of family.
func isInFamily(g *rdf.Graph, lang, family rdf.Term) bool {
	typ := rdf.NewIRI(rdf.RDFType)
	closure := g.SubClassClosure(family)
	for _, t := range g.Match(&lang, &typ, nil) {
		if closure[t.O] {
			return true
		}
	}
	return false
}

// LanguagesInFamily lists the language IRIs declared in a family, via the
// subclass closure — the Fig. 2 hierarchy walk.
func LanguagesInFamily(g *rdf.Graph, family rdf.Term) []rdf.Term {
	typ := rdf.NewIRI(rdf.RDFType)
	closure := g.SubClassClosure(family)
	seen := map[rdf.Term]bool{}
	var out []rdf.Term
	for cls := range closure {
		for _, t := range g.Match(nil, &typ, &cls) {
			if !seen[t.S] {
				seen[t.S] = true
				out = append(out, t.S)
			}
		}
	}
	return out
}
