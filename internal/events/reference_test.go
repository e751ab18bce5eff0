package events

import (
	"sort"
	"strings"

	"repro/internal/bindings"
	"repro/internal/xmltree"
)

// This file keeps the matcher and the pattern interpreter the indexed
// Matcher and the compiled Pattern replaced, as the reference
// implementations the property tests compare against. They are deliberately
// naive: the matcher tries every registration on every event, the
// interpreter re-reads the template on every match.

// refMatcher is the try-everything matcher: one list in registration order
// (a key registered again moves to the end), every template interpreted
// against every event.
type refMatcher struct {
	regs []refRegistration
}

type refRegistration struct {
	key      string
	template *xmltree.Node
	sink     func(Detection)
	every    bool // the sink sees every event, matching or not
	timed    bool // Advance reaches it
}

func (m *refMatcher) Register(r refRegistration) {
	m.Unregister(r.key)
	r.template = r.template.Root()
	m.regs = append(m.regs, r)
}

func (m *refMatcher) Unregister(key string) bool {
	for i, r := range m.regs {
		if r.key == key {
			m.regs = append(m.regs[:i:i], m.regs[i+1:]...)
			return true
		}
	}
	return false
}

func (m *refMatcher) Len() int { return len(m.regs) }

func (m *refMatcher) OnEvent(ev Event) {
	regs := append([]refRegistration(nil), m.regs...)
	for _, r := range regs {
		if ts := refMatch(r.template, ev); len(ts) > 0 || r.every {
			r.sink(Detection{Key: r.key, Bindings: ts, Event: ev})
		}
	}
}

// Advance returns the keys Advance reaches, in the order it reaches them.
func (m *refMatcher) Advance() []string {
	var keys []string
	for _, r := range m.regs {
		if r.timed {
			keys = append(keys, r.key)
		}
	}
	return keys
}

// refMatch is Pattern.Match as it was before patterns were compiled.
func refMatch(template *xmltree.Node, ev Event) []bindings.Tuple {
	if ev.Payload == nil {
		return nil
	}
	return refMatchElement(template, ev.Payload, bindings.Tuple{})
}

// refVars is Pattern.Vars as it was before patterns were compiled.
func refVars(template *xmltree.Node) []string {
	set := map[string]bool{}
	var walk func(n *xmltree.Node)
	walk = func(n *xmltree.Node) {
		for _, a := range n.Attrs {
			if v, ok := refVarName(a.Value); ok && !a.IsNamespaceDecl() {
				set[v] = true
			}
		}
		if v, ok := refVarName(refOwnText(n)); ok {
			set[v] = true
		}
		for _, c := range n.ChildElements() {
			walk(c)
		}
	}
	walk(template)
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func refVarName(s string) (string, bool) {
	s = strings.TrimSpace(s)
	if len(s) > 1 && s[0] == '$' {
		return s[1:], true
	}
	return "", false
}

func refOwnText(n *xmltree.Node) string {
	var b strings.Builder
	for _, c := range n.Children {
		if c.Kind == xmltree.TextNode {
			b.WriteString(c.Text)
		}
	}
	return b.String()
}

func refMatchElement(pat, ev *xmltree.Node, t bindings.Tuple) []bindings.Tuple {
	if pat.Name != ev.Name {
		return nil
	}
	cur := t.Clone()
	for _, a := range pat.Attrs {
		if a.IsNamespaceDecl() {
			continue
		}
		got, ok := ev.Attr(a.Name.Space, a.Name.Local)
		if !ok {
			return nil
		}
		if v, isVar := refVarName(a.Value); isVar {
			if !refBindVar(cur, v, bindings.Str(got)) {
				return nil
			}
			continue
		}
		if a.Value != got {
			return nil
		}
	}
	if txt := strings.TrimSpace(refOwnText(pat)); txt != "" {
		evTxt := strings.TrimSpace(refOwnText(ev))
		if v, isVar := refVarName(txt); isVar {
			if !refBindVar(cur, v, bindings.Str(evTxt)) {
				return nil
			}
		} else if txt != evTxt {
			return nil
		}
	}
	patKids := pat.ChildElements()
	if len(patKids) == 0 {
		return []bindings.Tuple{cur}
	}
	evKids := ev.ChildElements()
	return refMatchChildren(patKids, evKids, cur)
}

func refMatchChildren(patKids, evKids []*xmltree.Node, t bindings.Tuple) []bindings.Tuple {
	if len(patKids) == 0 {
		return []bindings.Tuple{t}
	}
	var out []bindings.Tuple
	first, rest := patKids[0], patKids[1:]
	for i, ek := range evKids {
		for _, t2 := range refMatchElement(first, ek, t) {
			remaining := make([]*xmltree.Node, 0, len(evKids)-1)
			remaining = append(remaining, evKids[:i]...)
			remaining = append(remaining, evKids[i+1:]...)
			out = append(out, refMatchChildren(rest, remaining, t2)...)
		}
	}
	return out
}

func refBindVar(t bindings.Tuple, name string, v bindings.Value) bool {
	if old, ok := t[name]; ok {
		return old.Equal(v)
	}
	t[name] = v
	return true
}
