package xq

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// evaluator carries the dynamic state of one query evaluation at one point
// of the query: the variables in scope and the constructor namespaces.
type evaluator struct {
	*evaluation
	vars *scope // the innermost binding; ctx.Vars lie beyond the last
	// nsScope accumulates xmlns declarations from enclosing constructors.
	nsScope map[string]string
}

// evaluation is what every evaluator of one Query.Eval shares.
type evaluation struct {
	ctx *Context
	// xctx and xvars are the context of every XPath call the evaluation
	// makes, reused because an XPath evaluation keeps neither once it
	// returns. xctx.Node is the empty document made by the first call when
	// ctx has no ContextNode.
	xctx  xpath.Context
	xvars map[string]xpath.Object
	root  evaluator
}

// scope is one variable binding, linked to the bindings it shadows.
type scope struct {
	name  string
	val   Sequence
	obj   xpath.Object // val converted for XPath, once it was needed
	outer *scope
}

// bind returns an evaluator that sees name bound to val.
func (ev *evaluator) bind(name string, val Sequence) *evaluator {
	return &evaluator{evaluation: ev.evaluation, vars: &scope{name: name, val: val, outer: ev.vars}, nsScope: ev.nsScope}
}

// xpathVar returns the binding of $name as an XPath value, and false when
// name is unbound.
func (ev *evaluator) xpathVar(name string) (xpath.Object, bool, error) {
	for s := ev.vars; s != nil; s = s.outer {
		if s.name == name {
			if s.obj == nil {
				o, err := seqToXPath(s.val)
				if err != nil {
					return nil, true, err
				}
				s.obj = o
			}
			return s.obj, true, nil
		}
	}
	v, ok := ev.ctx.Vars[name]
	if !ok {
		return nil, false, nil
	}
	o, err := seqToXPath(v)
	return o, true, err
}

// lookupNS resolves a constructor-name prefix: constructor-local xmlns
// declarations first, then the static context.
func (ev *evaluator) lookupNS(prefix string) (string, bool) {
	if ev.nsScope != nil {
		if u, ok := ev.nsScope[prefix]; ok {
			return u, true
		}
	}
	if ev.ctx.Namespaces != nil {
		if u, ok := ev.ctx.Namespaces[prefix]; ok {
			return u, true
		}
	}
	return "", false
}

// --- sequence ↔ xpath object conversion -------------------------------------------

func seqToXPath(seq Sequence) (xpath.Object, error) {
	if len(seq) == 1 {
		switch v := seq[0].(type) {
		case *xmltree.Node:
			return xpath.NodeSet{v}, nil
		default:
			return v, nil
		}
	}
	ns := make(xpath.NodeSet, 0, len(seq))
	for _, it := range seq {
		n, ok := it.(*xmltree.Node)
		if !ok {
			if len(seq) == 0 {
				break
			}
			return nil, fmt.Errorf("xq: a sequence of multiple atomic values cannot be used inside a path expression")
		}
		ns = append(ns, n)
	}
	return ns, nil
}

func xpathToSeq(o xpath.Object) Sequence {
	switch v := o.(type) {
	case xpath.NodeSet:
		out := make(Sequence, len(v))
		for i, n := range v {
			out[i] = n
		}
		return out
	default:
		return Sequence{v}
	}
}

// effectiveBool implements the XQuery effective boolean value for the
// sequences this interpreter produces.
func effectiveBool(seq Sequence) bool {
	if len(seq) == 0 {
		return false
	}
	if len(seq) == 1 {
		switch v := seq[0].(type) {
		case bool:
			return v
		case string:
			return v != ""
		case float64:
			return v != 0 && v == v // false for NaN
		}
	}
	return true // non-empty node sequence
}

// --- AST evaluation ------------------------------------------------------------

func (e *seqExpr) eval(ev *evaluator) (Sequence, error) {
	var out Sequence
	for _, item := range e.items {
		seq, err := item.eval(ev)
		if err != nil {
			return nil, err
		}
		out = append(out, seq...)
	}
	return out, nil
}

func (e *ifExpr) eval(ev *evaluator) (Sequence, error) {
	cond, err := e.cond.eval(ev)
	if err != nil {
		return nil, err
	}
	if effectiveBool(cond) {
		return e.then.eval(ev)
	}
	return e.els.eval(ev)
}

func (e *xpathExpr) eval(ev *evaluator) (Sequence, error) {
	x := &ev.xctx
	if x.Node == nil {
		x.Node = xmltree.NewDocument()
	}
	x.Vars = nil
	if names := e.compiled.Uses(); len(names) > 0 {
		if ev.xvars == nil {
			ev.xvars = make(map[string]xpath.Object, len(names))
		}
		clear(ev.xvars)
		for _, name := range names {
			o, ok, err := ev.xpathVar(name)
			if err != nil {
				return nil, fmt.Errorf("xq: variable $%s: %w", name, err)
			}
			if ok {
				ev.xvars[name] = o
			}
		}
		x.Vars = ev.xvars
	}
	o, err := e.compiled.Eval(x)
	if err != nil {
		return nil, err
	}
	return xpathToSeq(o), nil
}

// --- FLWOR ----------------------------------------------------------------------

func (e *flworExpr) eval(ev *evaluator) (Sequence, error) {
	// The tuple stream is represented as a slice of evaluators, each with
	// its own variable environment.
	root := *ev // a let binds in its tuple's evaluator, which must not be ev
	stream := []*evaluator{&root}
	for _, cl := range e.clauses {
		var err error
		stream, err = applyClause(stream, cl)
		if err != nil {
			return nil, err
		}
	}
	var out Sequence
	for _, tupleEv := range stream {
		seq, err := e.ret.eval(tupleEv)
		if err != nil {
			return nil, err
		}
		out = append(out, seq...)
	}
	return out, nil
}

func applyClause(stream []*evaluator, cl clause) ([]*evaluator, error) {
	switch c := cl.(type) {
	case forClause:
		for _, b := range c.bindings {
			var next []*evaluator
			for _, tev := range stream {
				src, err := b.src.eval(tev)
				if err != nil {
					return nil, err
				}
				for idx := range src {
					n := tev.bind(b.name, src[idx:idx+1:idx+1])
					if b.pos != "" {
						n.vars = &scope{name: b.pos, val: Sequence{float64(idx + 1)}, outer: n.vars}
					}
					next = append(next, n)
				}
			}
			stream = next
		}
		return stream, nil
	case letClause:
		for _, b := range c.bindings {
			for _, tev := range stream {
				v, err := b.src.eval(tev)
				if err != nil {
					return nil, err
				}
				tev.vars = &scope{name: b.name, val: v, outer: tev.vars}
			}
		}
		return stream, nil
	case whereClause:
		var next []*evaluator
		for _, tev := range stream {
			v, err := c.cond.eval(tev)
			if err != nil {
				return nil, err
			}
			if effectiveBool(v) {
				next = append(next, tev)
			}
		}
		return next, nil
	case orderClause:
		type keyed struct {
			ev    *evaluator
			keys  []string
			nums  []float64
			isNum []bool
		}
		rows := make([]keyed, len(stream))
		for i, tev := range stream {
			row := keyed{ev: tev}
			for _, k := range c.keys {
				v, err := k.key.eval(tev)
				if err != nil {
					return nil, err
				}
				s := atomizeJoin(v)
				row.keys = append(row.keys, s)
				if f, ok := parseNum(s); ok {
					row.nums = append(row.nums, f)
					row.isNum = append(row.isNum, true)
				} else {
					row.nums = append(row.nums, 0)
					row.isNum = append(row.isNum, false)
				}
			}
			rows[i] = row
		}
		sort.SliceStable(rows, func(i, j int) bool {
			for k := range c.keys {
				var less, greater bool
				if rows[i].isNum[k] && rows[j].isNum[k] {
					less = rows[i].nums[k] < rows[j].nums[k]
					greater = rows[i].nums[k] > rows[j].nums[k]
				} else {
					less = rows[i].keys[k] < rows[j].keys[k]
					greater = rows[i].keys[k] > rows[j].keys[k]
				}
				if c.keys[k].desc {
					less, greater = greater, less
				}
				if less {
					return true
				}
				if greater {
					return false
				}
			}
			return false
		})
		out := make([]*evaluator, len(rows))
		for i, r := range rows {
			out[i] = r.ev
		}
		return out, nil
	default:
		return nil, fmt.Errorf("xq: unknown clause %T", cl)
	}
}

func parseNum(s string) (float64, bool) {
	var f float64
	var rest string
	n, err := fmt.Sscanf(strings.TrimSpace(s), "%g%s", &f, &rest)
	if err == nil && n == 2 {
		return 0, false
	}
	if n >= 1 {
		return f, true
	}
	return 0, false
}

// --- xq-level functions -------------------------------------------------------------

func (e *xqFuncExpr) eval(ev *evaluator) (Sequence, error) {
	args := make([]Sequence, len(e.args))
	for i, a := range e.args {
		v, err := a.eval(ev)
		if err != nil {
			return nil, err
		}
		args[i] = v
	}
	need := func(n int) error {
		if len(args) != n {
			return fmt.Errorf("xq: %s() takes %d argument(s), got %d", e.name, n, len(args))
		}
		return nil
	}
	switch e.name {
	case "distinct-values":
		if err := need(1); err != nil {
			return nil, err
		}
		seen := map[string]bool{}
		var out Sequence
		for _, it := range args[0] {
			s := ItemString(it)
			if !seen[s] {
				seen[s] = true
				out = append(out, s)
			}
		}
		return out, nil
	case "string-join":
		if len(args) != 2 && len(args) != 1 {
			return nil, fmt.Errorf("xq: string-join() takes 1 or 2 arguments")
		}
		sep := ""
		if len(args) == 2 {
			sep = atomizeJoin(args[1])
		}
		parts := make([]string, len(args[0]))
		for i, it := range args[0] {
			parts[i] = ItemString(it)
		}
		return Sequence{strings.Join(parts, sep)}, nil
	case "count":
		if err := need(1); err != nil {
			return nil, err
		}
		return Sequence{float64(len(args[0]))}, nil
	case "sum":
		if err := need(1); err != nil {
			return nil, err
		}
		total := 0.0
		for _, it := range args[0] {
			f, ok := parseNum(ItemString(it))
			if !ok {
				return nil, fmt.Errorf("xq: sum(): non-numeric item %q", ItemString(it))
			}
			total += f
		}
		return Sequence{total}, nil
	case "exists":
		if err := need(1); err != nil {
			return nil, err
		}
		return Sequence{len(args[0]) > 0}, nil
	case "empty":
		if err := need(1); err != nil {
			return nil, err
		}
		return Sequence{len(args[0]) == 0}, nil
	case "reverse":
		if err := need(1); err != nil {
			return nil, err
		}
		out := make(Sequence, len(args[0]))
		for i, it := range args[0] {
			out[len(out)-1-i] = it
		}
		return out, nil
	case "min", "max", "avg":
		if err := need(1); err != nil {
			return nil, err
		}
		if len(args[0]) == 0 {
			return Sequence{}, nil
		}
		var acc float64
		first := true
		for _, it := range args[0] {
			f, ok := parseNum(ItemString(it))
			if !ok {
				return nil, fmt.Errorf("xq: %s(): non-numeric item %q", e.name, ItemString(it))
			}
			switch {
			case first:
				acc = f
				first = false
			case e.name == "min" && f < acc:
				acc = f
			case e.name == "max" && f > acc:
				acc = f
			case e.name == "avg":
				acc += f
			}
		}
		if e.name == "avg" {
			acc /= float64(len(args[0]))
		}
		return Sequence{acc}, nil
	default:
		return nil, fmt.Errorf("xq: unknown function %s()", e.name)
	}
}

// --- constructors ---------------------------------------------------------------

func (e *constructorExpr) eval(ev *evaluator) (Sequence, error) {
	n, err := e.build(ev)
	if err != nil {
		return nil, err
	}
	return Sequence{n}, nil
}

func (e *constructorExpr) build(ev *evaluator) (*xmltree.Node, error) {
	// First pass over attributes: xmlns declarations extend the scope used
	// to resolve this element's own name and its children. Without one,
	// the children see ev's scope.
	inner := ev
	declare := func(prefix, uri string) {
		if inner == ev {
			scope := make(map[string]string, len(ev.nsScope)+1)
			for k, v := range ev.nsScope {
				scope[k] = v
			}
			inner = &evaluator{evaluation: ev.evaluation, vars: ev.vars, nsScope: scope}
		}
		inner.nsScope[prefix] = uri
	}
	type resolvedAttr struct {
		name  xmltree.Name
		value string
		isNS  bool
		nsFor string
	}
	var buf [4]resolvedAttr
	attrs := buf[:0]
	for _, a := range e.attrs {
		val, err := evalParts(ev, a.parts)
		if err != nil {
			return nil, err
		}
		switch {
		case a.prefix == "xmlns":
			declare(a.local, val)
			attrs = append(attrs, resolvedAttr{name: xmltree.Name{Space: "xmlns", Local: a.local}, value: val, isNS: true})
		case a.prefix == "" && a.local == "xmlns":
			declare("", val)
			attrs = append(attrs, resolvedAttr{name: xmltree.Name{Local: "xmlns"}, value: val, isNS: true})
		default:
			attrs = append(attrs, resolvedAttr{value: val, nsFor: a.prefix, name: xmltree.Name{Local: a.local}})
		}
	}
	var space string
	if e.prefix != "" {
		u, ok := inner.lookupNS(e.prefix)
		if !ok {
			return nil, fmt.Errorf("xq: undeclared namespace prefix %q in constructor", e.prefix)
		}
		space = u
	} else if u, ok := inner.nsScope[""]; ok {
		space = u
	}
	el := xmltree.NewElement(space, e.local)
	el.Attrs = make([]xmltree.Attr, 0, len(attrs))
	el.Children = make([]*xmltree.Node, 0, len(e.content))
	for _, a := range attrs {
		if a.isNS {
			el.SetAttr(a.name.Space, a.name.Local, a.value)
			continue
		}
		aSpace := ""
		if a.nsFor != "" {
			u, ok := inner.lookupNS(a.nsFor)
			if !ok {
				return nil, fmt.Errorf("xq: undeclared namespace prefix %q in attribute", a.nsFor)
			}
			aSpace = u
		}
		el.SetAttr(aSpace, a.name.Local, a.value)
	}
	for _, c := range e.content {
		switch {
		case c.child != nil:
			n, err := c.child.build(inner)
			if err != nil {
				return nil, err
			}
			el.Append(n)
		case c.expr != nil:
			seq, err := c.expr.eval(inner)
			if err != nil {
				return nil, err
			}
			prevAtomic := false
			for _, it := range seq {
				if n, ok := it.(*xmltree.Node); ok {
					if !c.fresh {
						n = cloneForOutput(n)
					}
					el.Append(n)
					prevAtomic = false
					continue
				}
				s := ItemString(it)
				if prevAtomic {
					s = " " + s
				}
				el.AppendText(s)
				prevAtomic = true
			}
		default:
			el.AppendText(c.text)
		}
	}
	return el, nil
}

// cloneForOutput copies a node into constructed content; attribute nodes
// become text (their value), matching XQuery's treatment of attributes in
// element content well enough for rule queries.
func cloneForOutput(n *xmltree.Node) *xmltree.Node {
	if n.Kind == xmltree.AttrNode {
		return xmltree.NewText(n.Text)
	}
	if n.Kind == xmltree.DocumentNode {
		if r := n.Root(); r != nil {
			return r.Clone()
		}
	}
	return n.Clone()
}

func evalParts(ev *evaluator, parts []part) (string, error) {
	var b strings.Builder
	for _, p := range parts {
		if p.expr == nil {
			b.WriteString(p.text)
			continue
		}
		seq, err := p.expr.eval(ev)
		if err != nil {
			return "", err
		}
		b.WriteString(atomizeJoin(seq))
	}
	return b.String(), nil
}
