package events

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/bindings"
	"repro/internal/xmltree"
)

// Pattern is an atomic event pattern: an XML template whose attribute
// values and text content may be variables ($Name). Matching an event
// yields the tuples of variable bindings; a pattern with no variables
// yields one empty tuple on match.
//
// Matching rules:
//   - the pattern element matches an event element with the same name;
//   - every pattern attribute must be present on the event; a "$Var" value
//     binds the variable (joining if already bound), otherwise values must
//     be equal;
//   - every pattern child element must match some event child (each event
//     child used at most once per combination); extra event children are
//     ignored;
//   - pattern text content of the form "$Var" binds the element's text;
//     other non-whitespace text must equal the event's text.
//
// A Pattern is compiled once from its template by NewPattern and is
// immutable afterwards, so one Pattern may be matched from many goroutines.
type Pattern struct {
	root *elemPattern
	vars []string
}

// elemPattern is one template element, compiled: namespace declarations are
// gone, every attribute and the own text are classified as a literal test
// or a variable bind, and the literal tests come first, so an event that
// fails one is rejected before any tuple is allocated.
type elemPattern struct {
	name    xmltree.Name
	lits    []xmltree.Attr // attributes the event must carry with exactly this value
	binds   []attrBind     // attributes whose value binds a variable
	text    string         // trimmed own text the event must equal; "" = no test
	textVar string         // variable bound to the event's trimmed own text; "" = none
	kids    []*elemPattern // children whose subtree binds a variable
	ground  []*elemPattern // children that bind none: only their fit is checked
}

type attrBind struct {
	name xmltree.Name
	v    string
}

// NewPattern compiles a pattern from a template element (the root element
// is used if a document is given). The template is not retained.
func NewPattern(template *xmltree.Node) (*Pattern, error) {
	r := template.Root()
	if r == nil {
		return nil, fmt.Errorf("events: pattern has no root element")
	}
	set := map[string]bool{}
	p := &Pattern{root: compileElem(r, set)}
	p.vars = make([]string, 0, len(set))
	for v := range set {
		p.vars = append(p.vars, v)
	}
	sort.Strings(p.vars)
	return p, nil
}

func compileElem(n *xmltree.Node, vars map[string]bool) *elemPattern {
	e := &elemPattern{name: n.Name}
	for _, a := range n.Attrs {
		if a.IsNamespaceDecl() {
			continue
		}
		if v, ok := varName(a.Value); ok {
			vars[v] = true
			e.binds = append(e.binds, attrBind{a.Name, v})
		} else {
			e.lits = append(e.lits, a)
		}
	}
	if txt := strings.TrimSpace(ownText(n)); txt != "" {
		if v, ok := varName(txt); ok {
			vars[v] = true
			e.textVar = v
		} else {
			e.text = txt
		}
	}
	for _, c := range n.ChildElements() {
		if k := compileElem(c, vars); len(k.binds) == 0 && k.textVar == "" && len(k.kids) == 0 {
			e.ground = append(e.ground, k)
		} else {
			e.kids = append(e.kids, k)
		}
	}
	return e
}

// MustPattern parses a pattern from XML source, panicking on error.
func MustPattern(src string) *Pattern {
	p, err := NewPattern(xmltree.MustParse(src))
	if err != nil {
		panic(err)
	}
	return p
}

// Name returns the event name the pattern matches.
func (p *Pattern) Name() xmltree.Name { return p.root.name }

// Vars returns the variable names the pattern binds, sorted. The slice is
// computed once and shared; callers must not modify it.
func (p *Pattern) Vars() []string { return p.vars }

// varName reports whether s is a variable reference "$Name".
func varName(s string) (string, bool) {
	s = strings.TrimSpace(s)
	if len(s) > 1 && s[0] == '$' {
		return s[1:], true
	}
	return "", false
}

// ownText returns the concatenated direct text children of n. The common
// shapes — no text child, or exactly one — return without allocating.
func ownText(n *xmltree.Node) string {
	var first string
	texts := 0
	for _, c := range n.Children {
		if c.Kind == xmltree.TextNode {
			if texts == 0 {
				first = c.Text
			}
			texts++
		}
	}
	if texts <= 1 {
		return first
	}
	var b strings.Builder
	for _, c := range n.Children {
		if c.Kind == xmltree.TextNode {
			b.WriteString(c.Text)
		}
	}
	return b.String()
}

// Match matches the pattern against an event and returns the set of
// tuples of variable bindings (empty: no match). Several tuples arise when
// repeated pattern children match different event children. The tuples
// share no storage with each other or with later matches.
func (p *Pattern) Match(ev Event) []bindings.Tuple {
	if ev.Payload == nil {
		return nil
	}
	return p.root.match(ev.Payload, nil)
}

// match returns the distinct extensions of t under which ev fits e. t
// itself is never modified.
func (e *elemPattern) match(ev *xmltree.Node, t bindings.Tuple) []bindings.Tuple {
	if e.name != ev.Name {
		return nil
	}
	for _, a := range e.lits {
		if got, ok := ev.Attr(a.Name.Space, a.Name.Local); !ok || got != a.Value {
			return nil
		}
	}
	var evText string
	if e.text != "" || e.textVar != "" {
		evText = strings.TrimSpace(ownText(ev))
		if e.text != "" && evText != e.text {
			return nil
		}
	}
	// Every literal of this element holds; only now pay for a tuple.
	cur := t.Clone()
	for _, b := range e.binds {
		got, ok := ev.Attr(b.name.Space, b.name.Local)
		if !ok || !bindVar(cur, b.v, bindings.Str(got)) {
			return nil
		}
	}
	if e.textVar != "" && !bindVar(cur, e.textVar, bindings.Str(evText)) {
		return nil
	}
	if len(e.kids) == 0 && len(e.ground) == 0 {
		return []bindings.Tuple{cur}
	}
	return matchKids(e.kids, e.ground, ev.Children, make([]bool, len(ev.Children)), cur, nil)
}

// matchKids assigns each pattern child in kids to a distinct, still unused
// element of evKids, pattern child by pattern child, event children in
// document order, and adds each consistent combination of bindings under
// which the ground children fit the elements left to the set out.
func matchKids(kids, ground []*elemPattern, evKids []*xmltree.Node, used []bool, t bindings.Tuple, out []bindings.Tuple) []bindings.Tuple {
	if len(kids) == 0 {
		if slices.ContainsFunc(out, t.Equal) || len(ground) > 0 && !fitAll(ground, evKids, used) {
			return out
		}
		return append(out, t)
	}
	for i, ek := range evKids {
		if used[i] || ek.Kind != xmltree.ElementNode {
			continue
		}
		for _, t2 := range kids[0].match(ek, t) {
			used[i] = true
			out = matchKids(kids[1:], ground, evKids, used, t2, out)
			used[i] = false
		}
	}
	return out
}

// fitAll reports whether every pattern in ground fits its own unused
// element of evKids: a bipartite matching grown along augmenting paths, so
// n repeated children cost a polynomial, not their n! assignments.
func fitAll(ground []*elemPattern, evKids []*xmltree.Node, used []bool) bool {
	holder := make([]int, len(evKids)) // evKids index → 1 + the pattern holding it; 0 = free
	var seen []bool
	var augment func(g int) bool
	augment = func(g int) bool {
		for j, ek := range evKids {
			if seen[j] || used[j] || ek.Kind != xmltree.ElementNode || len(ground[g].match(ek, nil)) == 0 {
				continue
			}
			seen[j] = true
			if holder[j] == 0 || augment(holder[j]-1) {
				holder[j] = g + 1
				return true
			}
		}
		return false
	}
	for g := range ground {
		if seen = make([]bool, len(evKids)); !augment(g) {
			return false
		}
	}
	return true
}

func bindVar(t bindings.Tuple, name string, v bindings.Value) bool {
	if old, ok := t[name]; ok {
		return old.Equal(v)
	}
	t[name] = v
	return true
}
