// Package ruleml parses and validates ECA rule documents in the rule markup
// language of the paper ([MAA05a], Fig. 4): an eca:rule element containing
// one event component, any number of query components (optionally wrapped in
// <eca:variable name="…"> to bind functional results), an optional test
// component, and one or more action components. Every component is either an
// expression in its own language (identified by the namespace of its child
// element) or an <eca:opaque> fragment addressed to a named language/service.
package ruleml

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/protocol"
	"repro/internal/xmltree"
)

// ComponentKind distinguishes the four rule component families.
type ComponentKind string

// The component kinds, ordered Event < Query < Test < Action.
const (
	EventComponent  ComponentKind = "event"
	QueryComponent  ComponentKind = "query"
	TestComponent   ComponentKind = "test"
	ActionComponent ComponentKind = "action"
)

// Component is one rule component.
type Component struct {
	// Kind is the component family.
	Kind ComponentKind
	// ID identifies the component within its rule, e.g. "query[2]".
	ID string
	// Language is the namespace URI of the component language. For opaque
	// components it is the value of the language attribute; for marked-up
	// components the namespace of the expression element; empty when the
	// expression is a bare domain-level pattern (the GRH then applies its
	// component-kind default, e.g. the Atomic Event Matcher).
	Language string
	// Expression is the component expression element (nil for opaque).
	Expression *xmltree.Node
	// Opaque indicates an <eca:opaque> component: the expression is the
	// raw Text, submitted to a (possibly framework-unaware) service.
	Opaque bool
	// Text is the opaque expression string.
	Text string
	// Service optionally pins the URI of the service to contact, for
	// opaque components addressed directly (Fig. 9's HTTP GET node).
	Service string
	// Variable is the name bound by a surrounding <eca:variable>; empty
	// for plain components.
	Variable string
	// Declares lists variables the component declares it binds (the
	// binds="A B" attribute) — needed for components whose compiled form
	// does not report what it binds, e.g. an opaque query generating
	// log:answers with fresh variables for a framework-unaware service
	// (Fig. 10).
	Declares []string
}

// Rule is a parsed ECA rule.
type Rule struct {
	// ID is the rule identifier (the id attribute, or assigned on
	// registration).
	ID string
	// Event is the event component.
	Event Component
	// Steps are the query and test components in document order.
	Steps []Component
	// Actions are the action components.
	Actions []Component
	// Doc is the original rule document.
	Doc *xmltree.Node
}

// Components returns all components in evaluation order.
func (r *Rule) Components() []Component {
	out := make([]Component, 0, len(r.Steps)+len(r.Actions)+1)
	out = append(out, r.Event)
	out = append(out, r.Steps...)
	out = append(out, r.Actions...)
	return out
}

// Parse reads an eca:rule document.
func Parse(doc *xmltree.Node) (*Rule, error) {
	root := doc.Root()
	if root == nil || root.Name.Space != protocol.ECANS || root.Name.Local != "rule" {
		return nil, fmt.Errorf("ruleml: expected eca:rule, got %s", nameOf(root))
	}
	r := &Rule{ID: root.AttrValue("", "id"), Doc: doc}
	counts := map[ComponentKind]int{}
	mkID := func(k ComponentKind) string {
		if counts[k]++; counts[k] == 1 {
			return firstIDs[k]
		}
		return fmt.Sprintf("%s[%d]", k, counts[k])
	}
	sawEvent := false
	for _, el := range root.ChildElements() {
		if el.Name.Space != protocol.ECANS {
			return nil, fmt.Errorf("ruleml: unexpected element %s in rule", el.Name)
		}
		switch el.Name.Local {
		case "event":
			if sawEvent {
				return nil, fmt.Errorf("ruleml: rule has more than one event component")
			}
			c, err := parseComponent(EventComponent, el, "")
			if err != nil {
				return nil, err
			}
			c.ID = mkID(EventComponent)
			r.Event = c
			sawEvent = true
		case "variable":
			name := el.AttrValue("", "name")
			if name == "" {
				return nil, fmt.Errorf("ruleml: eca:variable without name attribute")
			}
			inner := el.ChildElements()
			if len(inner) != 1 || inner[0].Name.Space != protocol.ECANS ||
				(inner[0].Name.Local != "query" && inner[0].Name.Local != "event") {
				return nil, fmt.Errorf("ruleml: eca:variable %.64q must wrap exactly one eca:query or eca:event", name)
			}
			if inner[0].Name.Local == "event" {
				if sawEvent {
					return nil, fmt.Errorf("ruleml: rule has more than one event component")
				}
				c, err := parseComponent(EventComponent, inner[0], name)
				if err != nil {
					return nil, err
				}
				c.ID = mkID(EventComponent)
				r.Event = c
				sawEvent = true
				continue
			}
			c, err := parseComponent(QueryComponent, inner[0], name)
			if err != nil {
				return nil, err
			}
			c.ID = mkID(QueryComponent)
			r.Steps = append(r.Steps, c)
		case "query":
			c, err := parseComponent(QueryComponent, el, "")
			if err != nil {
				return nil, err
			}
			c.ID = mkID(QueryComponent)
			r.Steps = append(r.Steps, c)
		case "test":
			c, err := parseComponent(TestComponent, el, "")
			if err != nil {
				return nil, err
			}
			c.ID = mkID(TestComponent)
			r.Steps = append(r.Steps, c)
		case "action":
			c, err := parseComponent(ActionComponent, el, "")
			if err != nil {
				return nil, err
			}
			c.ID = mkID(ActionComponent)
			r.Actions = append(r.Actions, c)
		default:
			return nil, fmt.Errorf("ruleml: unknown rule element eca:%s", el.Name.Local)
		}
	}
	if !sawEvent {
		return nil, fmt.Errorf("ruleml: rule has no event component")
	}
	if len(r.Actions) == 0 {
		return nil, fmt.Errorf("ruleml: rule has no action component")
	}
	// Actions must come last (Event < Query < Test < Action).
	return r, nil
}

// ParseString parses a rule from XML source.
func ParseString(src string) (*Rule, error) {
	doc, err := xmltree.ParseString(src)
	if err != nil {
		return nil, fmt.Errorf("ruleml: %w", err)
	}
	return Parse(doc)
}

// MustParse parses a static rule, panicking on error.
func MustParse(src string) *Rule {
	r, err := ParseString(src)
	if err != nil {
		panic(err)
	}
	return r
}

// firstIDs are the ids of the first component of each kind, which most
// rules have. Every rule shares these strings instead of formatting its
// own, since a registered rule keeps its component ids.
var firstIDs = map[ComponentKind]string{
	EventComponent: "event[1]", QueryComponent: "query[1]", TestComponent: "test[1]", ActionComponent: "action[1]",
}

func parseComponent(kind ComponentKind, el *xmltree.Node, variable string) (Component, error) {
	c := Component{Kind: kind, Variable: variable}
	if b := el.AttrValue("", "binds"); b != "" {
		c.Declares = strings.Fields(b)
	}
	kids := el.ChildElements()
	// Opaque component?
	if len(kids) == 1 && kids[0].Name.Space == protocol.ECANS && kids[0].Name.Local == "opaque" {
		op := kids[0]
		c.Opaque = true
		c.Language = op.AttrValue("", "language")
		c.Service = op.AttrValue("", "uri")
		c.Text = strings.TrimSpace(op.TextContent())
		if c.Text == "" {
			return c, fmt.Errorf("ruleml: empty opaque %s component", kind)
		}
		if c.Language == "" && c.Service == "" {
			return c, fmt.Errorf("ruleml: opaque %s component needs a language or uri attribute", kind)
		}
		return c, nil
	}
	if len(kids) != 1 {
		// A test component may be plain text (a local comparison over
		// bound variables, evaluated by the engine's test evaluator).
		if kind == TestComponent {
			c.Text = strings.TrimSpace(el.TextContent())
			if c.Text != "" {
				c.Opaque = true
				return c, nil
			}
		}
		return c, fmt.Errorf("ruleml: %s component must contain exactly one expression element, has %d", kind, len(kids))
	}
	c.Expression = kids[0]
	if c.Expression.Name.Space != protocol.ECANS {
		c.Language = c.Expression.Name.Space
	}
	return c, nil
}

func nameOf(n *xmltree.Node) string {
	if n == nil {
		return "nothing"
	}
	return n.Name.String()
}

// --- variable binding discipline ----------------------------------------------------

// VarAnalysis describes which variables a component binds (makes available
// to later components) and which it uses (must already be bound, or bound
// by the same component).
type VarAnalysis struct {
	Binds []string
	Uses  []string
}

// A compiled component form reports its own facts through the optional
// methods of Binder, User and Listener: what its language compiled is
// exact where a textual scan guesses. A form may implement any of them.
type (
	// Binder reports the variables every answer of the form binds.
	Binder interface{ Binds() []string }
	// User reports the variables the form reads from its input bindings.
	User interface{ Uses() []string }
	// Listener reports the event names an event form listens to.
	Listener interface{ Names() []xmltree.Name }
)

// Analyze returns a component's variables as its compiled form reports
// them (Binder, User). A form that reports neither, or no form, leaves the
// component to the textual scan (scan). The binds="…" declarations are
// added either way.
func Analyze(c Component, form any) VarAnalysis {
	b, isBinder := form.(Binder)
	u, isUser := form.(User)
	if !isBinder && !isUser {
		return scan(c)
	}
	var a VarAnalysis
	if isBinder {
		a.Binds = b.Binds()
	}
	if isUser {
		a.Uses = u.Uses()
	}
	for _, d := range c.Declares {
		if !slices.Contains(a.Binds, d) {
			a.Binds = append(a.Binds[:len(a.Binds):len(a.Binds)], d)
		}
	}
	return a
}

// Validate checks the rule's variable binding discipline per Section 3 of
// the paper: a variable must be bound in an earlier (Event < Query < Test <
// Action) or the same component as where it is used. Join use is legal in
// Event/Query/Test; free variables in actions are errors. vars holds each
// component's analysis in Components() order; nil scans every component.
func Validate(r *Rule, vars []VarAnalysis) error {
	bound := map[string]bool{}
	for i, c := range r.Components() {
		var a VarAnalysis
		if vars == nil {
			a = scan(c)
		} else {
			a = vars[i]
		}
		for _, u := range a.Uses {
			if !bound[u] && !slices.Contains(a.Binds, u) {
				return fmt.Errorf("ruleml: rule %.64q: variable $%.64s used in %s before being bound", r.ID, u, c.ID)
			}
		}
		for _, b := range a.Binds {
			bound[b] = true
		}
		if c.Variable != "" {
			bound[c.Variable] = true
		}
	}
	return nil
}

// scan extracts variables textually, for a component whose form reports
// nothing — opaque text for a framework-unaware service, whose variables
// are substituted as text, or a language with no compile step:
//   - event components bind every $Var occurring in the pattern;
//   - other components use their free $Vars (variables introduced by an
//     XQuery for/let are internal);
//   - binds="…" declarations are bound.
func scan(c Component) VarAnalysis {
	var a VarAnalysis
	switch c.Kind {
	case EventComponent:
		a.Binds = scanDollarVars(c)
	default:
		a.Uses = freeQueryVars(c)
	}
	a.Binds = append(a.Binds, c.Declares...)
	return a
}

// scanDollarVars collects $Name occurrences in attribute values and text of
// the expression tree (or the opaque text).
func scanDollarVars(c Component) []string {
	set := map[string]bool{}
	if c.Opaque {
		collectDollarNames(c.Text, set)
	} else if c.Expression != nil {
		var walk func(n *xmltree.Node)
		walk = func(n *xmltree.Node) {
			for _, a := range n.Attrs {
				if !a.IsNamespaceDecl() {
					collectDollarNames(a.Value, set)
				}
			}
			for _, ch := range n.Children {
				if ch.Kind == xmltree.TextNode {
					collectDollarNames(ch.Text, set)
				}
				if ch.Kind == xmltree.ElementNode {
					walk(ch)
				}
			}
		}
		walk(c.Expression)
	}
	return sortedKeys(set)
}

// freeQueryVars is scanDollarVars minus variables declared by for/let
// clauses in the component text (the XQuery-internal ones).
func freeQueryVars(c Component) []string {
	all := scanDollarVars(c)
	text := c.Text
	if !c.Opaque && c.Expression != nil {
		text = c.Expression.String()
	}
	declared := map[string]bool{}
	for _, kw := range []string{"for", "let"} {
		rest := text
		for {
			i := strings.Index(rest, kw+" $")
			if i < 0 {
				break
			}
			rest = rest[i+len(kw)+2:]
			name := leadingName(rest)
			if name != "" {
				declared[name] = true
			}
		}
	}
	// Also variables bound via ", $x in" continuation clauses.
	rest := text
	for {
		i := strings.Index(rest, ", $")
		if i < 0 {
			break
		}
		rest = rest[i+3:]
		name := leadingName(rest)
		after := strings.TrimLeft(rest[len(name):], " \t\n")
		if name != "" && (strings.HasPrefix(after, "in ") || strings.HasPrefix(after, ":=")) {
			declared[name] = true
		}
	}
	var out []string
	for _, v := range all {
		if !declared[v] {
			out = append(out, v)
		}
	}
	return out
}

func collectDollarNames(s string, set map[string]bool) {
	for i := 0; i < len(s); i++ {
		if s[i] != '$' {
			continue
		}
		name := leadingName(s[i+1:])
		if name != "" {
			set[name] = true
			i += len(name)
		}
	}
}

func leadingName(s string) string {
	end := 0
	for end < len(s) {
		c := s[end]
		if c == '_' || c == '-' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') {
			end++
			continue
		}
		break
	}
	return s[:end]
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
