package xpath

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/xmltree"
)

// NodeSet is an XPath node-set result, in the order produced by evaluation
// (document order for forward axes).
type NodeSet []*xmltree.Node

// Object is an XPath value: one of NodeSet, float64, string or bool.
type Object any

// object is the internal alias used by the evaluator.
type object = Object

// Context supplies everything an expression evaluation needs besides the
// expression itself.
type Context struct {
	// Node is the context node. For absolute paths the document root is
	// located by following Parent pointers.
	Node *xmltree.Node
	// Vars resolves $name references. Values must be NodeSet, float64,
	// string or bool. May be nil.
	Vars map[string]Object
	// Namespaces maps the prefixes usable in name tests (q:elem) to
	// namespace URIs. May be nil. Unprefixed name tests match names in no
	// namespace unless DefaultNS is set.
	Namespaces map[string]string
	// DefaultNS, when non-empty, is the namespace URI unprefixed element
	// name tests match against (a deviation from strict XPath 1.0 that the
	// query components use so domain documents with a default namespace
	// can be queried without prefixing every step).
	DefaultNS string
	// Functions adds or overrides functions for this context; it is
	// consulted before the core library. The XQuery-lite interpreter uses
	// it to provide doc(). May be nil.
	Functions map[string]func(ctx *Context, args []Object) (Object, error)
}

// evalCtx is the per-evaluation state: the dynamic context position/size
// plus caches shared across the whole evaluation.
type evalCtx struct {
	node *xmltree.Node
	pos  int // 1-based context position
	size int
	env  *Context
	// attrCache memoizes synthesized attribute nodes so repeated attribute
	// axis traversals of one element yield identical node pointers.
	attrCache map[*xmltree.Node][]*xmltree.Node
}

func (c *evalCtx) with(n *xmltree.Node, pos, size int) *evalCtx {
	return &evalCtx{node: n, pos: pos, size: size, env: c.env, attrCache: c.attrCache}
}

func (c *evalCtx) attrs(n *xmltree.Node) []*xmltree.Node {
	if a, ok := c.attrCache[n]; ok {
		return a
	}
	a := n.AttrNodes()
	c.attrCache[n] = a
	return a
}

// Eval evaluates the expression and returns the result object.
func (e *Expr) Eval(ctx *Context) (Object, error) {
	ec := &evalCtx{node: ctx.Node, pos: 1, size: 1, env: ctx, attrCache: map[*xmltree.Node][]*xmltree.Node{}}
	return e.root.eval(ec)
}

// EvalNodes evaluates the expression and returns its node-set result; it is
// an error if the expression yields a non-node-set.
func (e *Expr) EvalNodes(ctx *Context) (NodeSet, error) {
	o, err := e.Eval(ctx)
	if err != nil {
		return nil, err
	}
	ns, ok := o.(NodeSet)
	if !ok {
		return nil, fmt.Errorf("xpath: %q evaluated to %s, not a node-set", e.src, typeName(o))
	}
	return ns, nil
}

// EvalString evaluates the expression and converts the result to a string
// per the XPath string() rules.
func (e *Expr) EvalString(ctx *Context) (string, error) {
	o, err := e.Eval(ctx)
	if err != nil {
		return "", err
	}
	return toString(o), nil
}

// EvalBool evaluates the expression and converts the result to a boolean
// per the XPath boolean() rules.
func (e *Expr) EvalBool(ctx *Context) (bool, error) {
	o, err := e.Eval(ctx)
	if err != nil {
		return false, err
	}
	return toBool(o), nil
}

// EvalNumber evaluates the expression and converts the result to a number
// per the XPath number() rules (NaN on unparsable strings).
func (e *Expr) EvalNumber(ctx *Context) (float64, error) {
	o, err := e.Eval(ctx)
	if err != nil {
		return 0, err
	}
	return toNumber(o), nil
}

// --- conversions ------------------------------------------------------------

func typeName(o object) string {
	switch o.(type) {
	case NodeSet:
		return "node-set"
	case float64:
		return "number"
	case string:
		return "string"
	case bool:
		return "boolean"
	default:
		return fmt.Sprintf("%T", o)
	}
}

func toString(o object) string {
	switch v := o.(type) {
	case NodeSet:
		if len(v) == 0 {
			return ""
		}
		return v[0].TextContent()
	case float64:
		return formatNumber(v)
	case string:
		return v
	case bool:
		if v {
			return "true"
		}
		return "false"
	default:
		return ""
	}
}

// FormatNumber renders a float per the XPath string(number) rules:
// integral values without a decimal point, NaN and infinities by name.
func FormatNumber(f float64) string { return formatNumber(f) }

func formatNumber(f float64) string {
	switch {
	case math.IsNaN(f):
		return "NaN"
	case math.IsInf(f, 1):
		return "Infinity"
	case math.IsInf(f, -1):
		return "-Infinity"
	case f == math.Trunc(f) && math.Abs(f) < 1e15:
		return strconv.FormatInt(int64(f), 10)
	default:
		return strconv.FormatFloat(f, 'g', -1, 64)
	}
}

func toNumber(o object) float64 {
	switch v := o.(type) {
	case NodeSet:
		return stringToNumber(toString(v))
	case float64:
		return v
	case string:
		return stringToNumber(v)
	case bool:
		if v {
			return 1
		}
		return 0
	default:
		return math.NaN()
	}
}

func stringToNumber(s string) float64 {
	f, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil {
		return math.NaN()
	}
	return f
}

func toBool(o object) bool {
	switch v := o.(type) {
	case NodeSet:
		return len(v) > 0
	case float64:
		return v != 0 && !math.IsNaN(v)
	case string:
		return v != ""
	case bool:
		return v
	default:
		return false
	}
}

// --- expression evaluation ---------------------------------------------------

func (e *literalExpr) eval(*evalCtx) (object, error) { return e.val, nil }
func (e *numberExpr) eval(*evalCtx) (object, error)  { return e.val, nil }

func (e *varExpr) eval(c *evalCtx) (object, error) {
	if c.env.Vars != nil {
		if v, ok := c.env.Vars[e.name]; ok {
			return v, nil
		}
	}
	return nil, fmt.Errorf("xpath: unbound variable $%s", e.name)
}

func (e *negExpr) eval(c *evalCtx) (object, error) {
	v, err := e.operand.eval(c)
	if err != nil {
		return nil, err
	}
	return -toNumber(v), nil
}

// eval folds the chain from the left in a loop. and and or short-circuit:
// once the value so far decides them, the remaining operands of that
// operator are not evaluated.
func (e *chainExpr) eval(c *evalCtx) (object, error) {
	acc, err := e.operands[0].eval(c)
	if err != nil {
		return nil, err
	}
	for i, op := range e.ops {
		if (op == "and" && !toBool(acc)) || (op == "or" && toBool(acc)) {
			acc = toBool(acc)
			continue
		}
		r, err := e.operands[i+1].eval(c)
		if err != nil {
			return nil, err
		}
		if acc, err = binary(op, acc, r); err != nil {
			return nil, err
		}
	}
	return acc, nil
}

// binary applies one operator to its evaluated operands.
func binary(op string, l, r object) (object, error) {
	switch op {
	case "and", "or":
		return toBool(r), nil // l has not decided the result
	case "|":
		ln, ok1 := l.(NodeSet)
		rn, ok2 := r.(NodeSet)
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("xpath: operands of | must be node-sets, got %s and %s", typeName(l), typeName(r))
		}
		return unionNodeSets(ln, rn), nil
	case "+", "-", "*", "div", "mod":
		a, b := toNumber(l), toNumber(r)
		switch op {
		case "+":
			return a + b, nil
		case "-":
			return a - b, nil
		case "*":
			return a * b, nil
		case "div":
			return a / b, nil
		default:
			return math.Mod(a, b), nil
		}
	case "=", "!=":
		return compareEq(l, r, op == "!="), nil
	case "<", "<=", ">", ">=":
		return compareRel(l, r, op), nil
	}
	return nil, fmt.Errorf("xpath: unknown operator %q", op)
}

// compareEq implements the XPath 1.0 =/!= semantics including existential
// node-set comparison.
func compareEq(l, r object, negate bool) bool {
	eq := func(a, b object) bool {
		_, ab := a.(bool)
		_, bb := b.(bool)
		if ab || bb {
			return toBool(a) == toBool(b)
		}
		_, an := a.(float64)
		_, bn := b.(float64)
		if an || bn {
			return toNumber(a) == toNumber(b)
		}
		return toString(a) == toString(b)
	}
	// When either operand is a boolean, the other is converted with
	// boolean() and compared once — even if it is a node-set.
	if _, ok := l.(bool); ok {
		return (toBool(l) == toBool(r)) != negate
	}
	if _, ok := r.(bool); ok {
		return (toBool(l) == toBool(r)) != negate
	}
	ln, lIsSet := l.(NodeSet)
	rn, rIsSet := r.(NodeSet)
	switch {
	case lIsSet && rIsSet:
		for _, a := range ln {
			for _, b := range rn {
				if (a.TextContent() == b.TextContent()) != negate {
					return true
				}
			}
		}
		return false
	case lIsSet:
		for _, a := range ln {
			if eq(a.TextContent(), r) != negate {
				return true
			}
		}
		return false
	case rIsSet:
		for _, b := range rn {
			if eq(l, b.TextContent()) != negate {
				return true
			}
		}
		return false
	default:
		return eq(l, r) != negate
	}
}

// compareRel implements </<=/>/>= with numeric comparison and existential
// node-set semantics.
func compareRel(l, r object, op string) bool {
	cmp := func(a, b float64) bool {
		switch op {
		case "<":
			return a < b
		case "<=":
			return a <= b
		case ">":
			return a > b
		default:
			return a >= b
		}
	}
	ln, lIsSet := l.(NodeSet)
	rn, rIsSet := r.(NodeSet)
	switch {
	case lIsSet && rIsSet:
		for _, a := range ln {
			for _, b := range rn {
				if cmp(stringToNumber(a.TextContent()), stringToNumber(b.TextContent())) {
					return true
				}
			}
		}
		return false
	case lIsSet:
		for _, a := range ln {
			if cmp(stringToNumber(a.TextContent()), toNumber(r)) {
				return true
			}
		}
		return false
	case rIsSet:
		for _, b := range rn {
			if cmp(toNumber(l), stringToNumber(b.TextContent())) {
				return true
			}
		}
		return false
	default:
		return cmp(toNumber(l), toNumber(r))
	}
}

func unionNodeSets(a, b NodeSet) NodeSet {
	seen := make(map[*xmltree.Node]bool, len(a)+len(b))
	out := make(NodeSet, 0, len(a)+len(b))
	for _, s := range [2]NodeSet{a, b} {
		for _, n := range s {
			if !seen[n] {
				seen[n] = true
				out = append(out, n)
			}
		}
	}
	return out
}

func (e *filterExpr) eval(c *evalCtx) (object, error) {
	v, err := e.primary.eval(c)
	if err != nil {
		return nil, err
	}
	if len(e.preds) == 0 {
		return v, nil
	}
	ns, ok := v.(NodeSet)
	if !ok {
		return nil, fmt.Errorf("xpath: predicate applied to %s, not a node-set", typeName(v))
	}
	for _, pred := range e.preds {
		ns, err = filterByPredicate(c, ns, pred)
		if err != nil {
			return nil, err
		}
	}
	return ns, nil
}

func filterByPredicate(c *evalCtx, ns NodeSet, pred exprNode) (NodeSet, error) {
	var out NodeSet
	for i, n := range ns {
		pc := c.with(n, i+1, len(ns))
		v, err := pred.eval(pc)
		if err != nil {
			return nil, err
		}
		if num, isNum := v.(float64); isNum {
			if float64(i+1) == num {
				out = append(out, n)
			}
			continue
		}
		if toBool(v) {
			out = append(out, n)
		}
	}
	return out, nil
}

func (e *pathExpr) eval(c *evalCtx) (object, error) {
	var current NodeSet
	switch {
	case e.start != nil:
		v, err := e.start.eval(c)
		if err != nil {
			return nil, err
		}
		ns, ok := v.(NodeSet)
		if !ok {
			return nil, fmt.Errorf("xpath: path applied to %s, not a node-set", typeName(v))
		}
		current = ns
	case e.absolute:
		current = NodeSet{documentRoot(c.node)}
	default:
		current = NodeSet{c.node}
	}
	for _, s := range e.steps {
		next, err := evalStep(c, current, s)
		if err != nil {
			return nil, err
		}
		current = next
	}
	return current, nil
}

func documentRoot(n *xmltree.Node) *xmltree.Node {
	for n.Parent != nil {
		n = n.Parent
	}
	return n
}

func evalStep(c *evalCtx, input NodeSet, s step) (NodeSet, error) {
	var out NodeSet
	seen := map[*xmltree.Node]bool{}
	for _, ctx := range input {
		candidates := axisNodes(c, ctx, s.axis)
		var matched NodeSet
		for _, n := range candidates {
			if matchTest(c, n, s.axis, s.test) {
				matched = append(matched, n)
			}
		}
		for _, pred := range s.preds {
			var err error
			matched, err = filterByPredicate(c, matched, pred)
			if err != nil {
				return nil, err
			}
		}
		for _, n := range matched {
			if !seen[n] {
				seen[n] = true
				out = append(out, n)
			}
		}
	}
	return out, nil
}

func axisNodes(c *evalCtx, n *xmltree.Node, a axis) NodeSet {
	switch a {
	case axisChild:
		return NodeSet(n.Children)
	case axisDescendant, axisDescendantOrSelf:
		var out NodeSet
		if a == axisDescendantOrSelf {
			out = append(out, n)
		}
		var walk func(*xmltree.Node)
		walk = func(x *xmltree.Node) {
			for _, ch := range x.Children {
				out = append(out, ch)
				walk(ch)
			}
		}
		walk(n)
		return out
	case axisSelf:
		return NodeSet{n}
	case axisParent:
		if n.Parent != nil {
			return NodeSet{n.Parent}
		}
		return nil
	case axisAncestor, axisAncestorOrSelf:
		var out NodeSet
		if a == axisAncestorOrSelf {
			out = append(out, n)
		}
		for p := n.Parent; p != nil; p = p.Parent {
			out = append(out, p)
		}
		return out
	case axisAttribute:
		return NodeSet(c.attrs(n))
	case axisFollowingSibling, axisPrecedingSibling:
		if n.Parent == nil {
			return nil
		}
		sibs := n.Parent.Children
		idx := -1
		for i, s := range sibs {
			if s == n {
				idx = i
				break
			}
		}
		if idx < 0 {
			return nil
		}
		var out NodeSet
		if a == axisFollowingSibling {
			out = append(out, sibs[idx+1:]...)
		} else {
			for i := idx - 1; i >= 0; i-- {
				out = append(out, sibs[i])
			}
		}
		return out
	case axisFollowing:
		// All nodes after n in document order, excluding descendants:
		// for each ancestor-or-self, the subtrees of its following
		// siblings.
		var out NodeSet
		for cur := n; cur != nil && cur.Parent != nil; cur = cur.Parent {
			sibs := cur.Parent.Children
			idx := -1
			for i, s := range sibs {
				if s == cur {
					idx = i
					break
				}
			}
			for _, sib := range sibs[idx+1:] {
				out = append(out, sib)
				out = append(out, axisNodes(c, sib, axisDescendant)...)
			}
		}
		return out
	case axisPreceding:
		// All nodes before n in document order, excluding ancestors.
		var out NodeSet
		for cur := n; cur != nil && cur.Parent != nil; cur = cur.Parent {
			sibs := cur.Parent.Children
			idx := -1
			for i, s := range sibs {
				if s == cur {
					idx = i
					break
				}
			}
			for i := idx - 1; i >= 0; i-- {
				out = append(out, sibs[i])
				out = append(out, axisNodes(c, sibs[i], axisDescendant)...)
			}
		}
		return out
	default:
		return nil
	}
}

func matchTest(c *evalCtx, n *xmltree.Node, a axis, t nodeTest) bool {
	principalElement := a != axisAttribute
	switch t.kind {
	case testNodeType:
		switch t.nodeType {
		case "node":
			return true
		case "text":
			return n.Kind == xmltree.TextNode
		case "comment":
			return n.Kind == xmltree.CommentNode
		case "processing-instruction":
			return n.Kind == xmltree.ProcInstNode
		}
		return false
	case testAny:
		if principalElement {
			return n.Kind == xmltree.ElementNode
		}
		return n.Kind == xmltree.AttrNode
	case testNSWildcard:
		uri, ok := c.env.Namespaces[t.prefix]
		if !ok {
			return false
		}
		if principalElement {
			return n.Kind == xmltree.ElementNode && n.Name.Space == uri
		}
		return n.Kind == xmltree.AttrNode && n.Name.Space == uri
	default: // testName
		var uri string
		if t.prefix != "" {
			u, ok := c.env.Namespaces[t.prefix]
			if !ok {
				return false
			}
			uri = u
		} else if principalElement {
			uri = c.env.DefaultNS
		}
		if principalElement {
			return n.Kind == xmltree.ElementNode && n.Name.Local == t.local && n.Name.Space == uri
		}
		return n.Kind == xmltree.AttrNode && n.Name.Local == t.local && n.Name.Space == uri
	}
}

func (e *funcExpr) eval(c *evalCtx) (object, error) {
	if c.env.Functions != nil {
		if custom, ok := c.env.Functions[e.name]; ok {
			args := make([]object, len(e.args))
			for i, a := range e.args {
				v, err := a.eval(c)
				if err != nil {
					return nil, err
				}
				args[i] = v
			}
			return custom(c.env, args)
		}
	}
	fn, ok := coreFunctions[e.name]
	if !ok {
		return nil, fmt.Errorf("xpath: unknown function %s()", e.name)
	}
	if fn.minArgs > len(e.args) || (fn.maxArgs >= 0 && len(e.args) > fn.maxArgs) {
		return nil, fmt.Errorf("xpath: %s() called with %d arguments", e.name, len(e.args))
	}
	args := make([]object, len(e.args))
	for i, a := range e.args {
		v, err := a.eval(c)
		if err != nil {
			return nil, err
		}
		args[i] = v
	}
	return fn.impl(c, args)
}
