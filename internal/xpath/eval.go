package xpath

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"repro/internal/xmltree"
)

// NodeSet is an XPath node-set result, in document order, except that a
// path from a start node-set (a variable, say) keeps the start's order.
type NodeSet []*xmltree.Node

// Object is an XPath value: one of NodeSet, float64, string or bool.
type Object any

// object is the internal alias used by the evaluator.
type object = Object

// Context supplies everything an expression evaluation needs besides the
// expression itself: the context node, the variables, the namespaces and
// Docs, the resolver of doc().
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
	// Docs resolves doc('uri') to a document node, for the XQuery-lite
	// interpreter and its document store. May be nil: doc() then fails.
	Docs func(uri string) (*xmltree.Node, error)
}

// evaluation is the state one Eval call shares across all its dynamic
// contexts.
type evaluation struct {
	env *Context
	// attrCache memoizes synthesized attribute nodes so repeated attribute
	// axis traversals of one element yield identical node pointers. It is
	// made on first use.
	attrCache map[*xmltree.Node][]*xmltree.Node
	// args is a stack of evaluated function arguments: a call pushes its
	// arguments, passes them to the function and pops them.
	args []object
	// order ranks the nodes of the documents sorted so far, and ranked
	// counts the ranks given; see docOrder.
	order  map[*xmltree.Node]int
	ranked int
	top    evalCtx
}

// evalCtx is a dynamic context: the context node, position and size.
type evalCtx struct {
	node *xmltree.Node
	pos  int // 1-based context position
	size int
	*evaluation
}

func (c *evalCtx) attrs(n *xmltree.Node) []*xmltree.Node {
	if a, ok := c.attrCache[n]; ok {
		return a
	}
	if c.attrCache == nil {
		c.attrCache = map[*xmltree.Node][]*xmltree.Node{}
	}
	a := n.AttrNodes()
	c.attrCache[n] = a
	return a
}

// Eval evaluates the expression and returns the result object.
func (e *Expr) Eval(ctx *Context) (Object, error) {
	ev := &evaluation{env: ctx}
	ev.top = evalCtx{node: ctx.Node, pos: 1, size: 1, evaluation: ev}
	return e.root.eval(&ev.top)
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
	if e.ops[0] == "|" {
		c.inDocOrder(acc.(NodeSet))
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
	// When either operand is a boolean, the other is converted with
	// boolean() and compared once — even if it is a node-set.
	if isBool(l) || isBool(r) {
		return (toBool(l) == toBool(r)) != negate
	}
	if ln, ok := l.(NodeSet); ok {
		for _, a := range ln {
			if eqText(a.TextContent(), r, negate) {
				return true
			}
		}
		return false
	}
	if rn, ok := r.(NodeSet); ok {
		for _, b := range rn {
			if eqText(b.TextContent(), l, negate) {
				return true
			}
		}
		return false
	}
	_, ln := l.(float64)
	_, rn := r.(float64)
	if ln || rn {
		return (toNumber(l) == toNumber(r)) != negate
	}
	return (toString(l) == toString(r)) != negate
}

func isBool(o object) bool {
	_, ok := o.(bool)
	return ok
}

// eqText is = (or != with negate) between a node whose string-value is t
// and r, which is no boolean: existential over a node-set r.
func eqText(t string, r object, negate bool) bool {
	switch r := r.(type) {
	case NodeSet:
		for _, b := range r {
			if (t == b.TextContent()) != negate {
				return true
			}
		}
		return false
	case float64:
		return (stringToNumber(t) == r) != negate
	default:
		return (t == toString(r)) != negate
	}
}

// compareRel implements </<=/>/>= with numeric comparison and existential
// node-set semantics.
func compareRel(l, r object, op string) bool {
	if ln, ok := l.(NodeSet); ok {
		for _, a := range ln {
			if relText(a.TextContent(), r, op, true) {
				return true
			}
		}
		return false
	}
	if rn, ok := r.(NodeSet); ok {
		for _, b := range rn {
			if relText(b.TextContent(), l, op, false) {
				return true
			}
		}
		return false
	}
	return cmpNumbers(toNumber(l), toNumber(r), op)
}

// relText compares the number of a node whose string-value is t with r,
// the node on the left of op when tLeft: existential over a node-set r.
func relText(t string, r object, op string, tLeft bool) bool {
	a := stringToNumber(t)
	cmp := func(b float64) bool {
		if tLeft {
			return cmpNumbers(a, b, op)
		}
		return cmpNumbers(b, a, op)
	}
	if rn, ok := r.(NodeSet); ok {
		for _, b := range rn {
			if cmp(stringToNumber(b.TextContent())) {
				return true
			}
		}
		return false
	}
	return cmp(toNumber(r))
}

func cmpNumbers(a, b float64, op string) bool {
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

// eval compares as binary would with the attribute as a node-set of one
// node, or none.
func (e *attrCompare) eval(c *evalCtx) (object, error) {
	text, found := attrValue(c, c.node, e.attr)
	other, err := e.other.eval(c)
	if err != nil {
		return nil, err
	}
	switch {
	case !found:
		if e.attrLeft {
			return binary(e.op, NodeSet(nil), other)
		}
		return binary(e.op, other, NodeSet(nil))
	case e.op == "=" || e.op == "!=":
		if b, ok := other.(bool); ok {
			return b != (e.op == "!="), nil
		}
		return eqText(text, other, e.op == "!="), nil
	default:
		return relText(text, other, e.op, e.attrLeft), nil
	}
}

// attrValue is the value of n's attribute that name test t selects.
func attrValue(c *evalCtx, n *xmltree.Node, t nodeTest) (string, bool) {
	uri := ""
	if t.prefix != "" {
		u, ok := c.env.Namespaces[t.prefix]
		if !ok {
			return "", false
		}
		uri = u
	}
	for _, a := range n.Attrs {
		if a.Name.Local == t.local && a.Name.Space == uri && !a.IsNamespaceDecl() {
			return a.Value, true
		}
	}
	return "", false
}

// unionNodeSets is a | b, in operand order; chainExpr.eval sorts a union
// chain's result once.
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
	pc := &evalCtx{evaluation: c.evaluation}
	for i, pred := range e.preds {
		var out NodeSet // the primary's node-set may be a variable's: not ours to overwrite
		if i > 0 {
			out = ns[:0]
		}
		if ns, err = filterByPredicate(pc, ns, pred, out); err != nil {
			return nil, err
		}
	}
	return ns, nil
}

// filterByPredicate appends to out the nodes of ns that pass pred, each
// evaluated in pc with its position and size set. out may share ns's
// array, since it never overtakes the node being read.
func filterByPredicate(pc *evalCtx, ns NodeSet, pred exprNode, out NodeSet) (NodeSet, error) {
	pc.size = len(ns)
	for i, n := range ns {
		pc.node, pc.pos = n, i+1
		v, err := pred.eval(pc)
		if err != nil {
			return nil, err
		}
		keep := toBool(v)
		if num, isNum := v.(float64); isNum {
			keep = float64(i+1) == num
		}
		if keep {
			out = append(out, n)
		}
	}
	return out, nil
}

func (e *pathExpr) eval(c *evalCtx) (object, error) {
	var start [1]*xmltree.Node // the context or root node, which no step keeps
	var input NodeSet
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
		input = ns
	case len(e.steps) == 0: // "/"
		return NodeSet{documentRoot(c.node)}, nil
	case e.absolute:
		start[0] = documentRoot(c.node)
		input = start[:]
	default:
		start[0] = c.node
		input = start[:]
	}
	var out NodeSet
	for i := range e.steps {
		s := &e.steps[i]
		// A start node-set may hold a node twice. Every other step input
		// is duplicate-free, and from such an input the child, attribute
		// and self axes cannot reach one node twice.
		unique := (i > 0 || e.start == nil) && (s.axis == axisChild || s.axis == axisAttribute || s.axis == axisSelf)
		var err error
		if out, err = evalStep(c, input, s, !unique); err != nil {
			return nil, err
		}
		// Each context node yields its nodes in document order. A path
		// from the context node or the root has its input in document
		// order from the second step on; their concatenation is then out
		// of order only on the reverse and sideways axes, and on the
		// downward ones (child, descendant, descendant-or-self) when one
		// context node lies within another. A path from a start node-set
		// keeps the start's order, as its first step always did.
		if e.start == nil && i > 0 && len(input) > 1 && s.axis != axisSelf && s.axis != axisAttribute &&
			(s.axis > axisDescendantOrSelf || nests(input)) {
			c.inDocOrder(out)
		}
		input = out
	}
	return out, nil
}

// nests reports whether a node of ns, which is in document order, lies
// within the node before it.
func nests(ns NodeSet) bool {
	for i := 1; i < len(ns); i++ {
		for p := ns[i].Parent; p != nil; p = p.Parent {
			if p == ns[i-1] {
				return true
			}
		}
	}
	return false
}

// inDocOrder sorts ns, which holds no node twice, into document order.
// The nodes of different documents keep their documents in the order of
// their first nodes in ns.
func (c *evalCtx) inDocOrder(ns NodeSet) {
	for _, n := range ns {
		c.docOrder(n)
	}
	slices.SortFunc(ns, func(a, b *xmltree.Node) int { return c.docOrder(a) - c.docOrder(b) })
}

// docOrder is n's rank in document order. The first call for a node of a
// document numbers the whole document: each node, then its attributes,
// then its children.
func (c *evalCtx) docOrder(n *xmltree.Node) int {
	if p := n.Parent; n.Kind == xmltree.AttrNode && p != nil {
		for i, a := range p.Attrs {
			if a.Name == n.Name {
				return c.docOrder(p) + 1 + i
			}
		}
	}
	if k, ok := c.order[n]; ok {
		return k
	}
	if c.order == nil {
		c.order = map[*xmltree.Node]int{}
	}
	var number func(n *xmltree.Node)
	number = func(n *xmltree.Node) {
		c.order[n] = c.ranked
		c.ranked += 1 + len(n.Attrs)
		for _, ch := range n.Children {
			number(ch)
		}
	}
	number(documentRoot(n))
	return c.order[n]
}

func documentRoot(n *xmltree.Node) *xmltree.Node {
	for n.Parent != nil {
		n = n.Parent
	}
	return n
}

// evalStep applies a location step to every node of input, in order. With
// dedup it drops the nodes an earlier context node already yielded.
func evalStep(c *evalCtx, input NodeSet, s *step, dedup bool) (NodeSet, error) {
	var out, matched NodeSet
	var seen map[*xmltree.Node]bool
	var pc *evalCtx
	for _, n := range input {
		matched = c.appendAxis(matched[:0], n, s)
		if len(matched) > 0 && len(s.preds) > 0 {
			if pc == nil {
				pc = &evalCtx{evaluation: c.evaluation}
			}
			for _, pred := range s.preds {
				var err error
				if matched, err = filterByPredicate(pc, matched, pred, matched[:0]); err != nil {
					return nil, err
				}
			}
		}
		switch {
		case len(input) == 1:
			return matched, nil // one context node yields each node once
		case !dedup:
			out = append(out, matched...)
		default:
			if seen == nil {
				seen = make(map[*xmltree.Node]bool, len(input))
			}
			for _, m := range matched {
				if !seen[m] {
					seen[m] = true
					out = append(out, m)
				}
			}
		}
	}
	return out, nil
}

// appendAxis appends to dst the nodes on s's axis from n that pass s's
// node test, in axis order.
func (c *evalCtx) appendAxis(dst NodeSet, n *xmltree.Node, s *step) NodeSet {
	switch s.axis {
	case axisChild:
		for _, ch := range n.Children {
			dst = c.appendIf(dst, ch, s)
		}
	case axisDescendant:
		dst = c.appendDescendants(dst, n, s)
	case axisDescendantOrSelf:
		dst = c.appendDescendants(c.appendIf(dst, n, s), n, s)
	case axisSelf:
		dst = c.appendIf(dst, n, s)
	case axisParent:
		if n.Parent != nil {
			dst = c.appendIf(dst, n.Parent, s)
		}
	case axisAncestor, axisAncestorOrSelf:
		if s.axis == axisAncestorOrSelf {
			dst = c.appendIf(dst, n, s)
		}
		for p := n.Parent; p != nil; p = p.Parent {
			dst = c.appendIf(dst, p, s)
		}
	case axisAttribute:
		for _, a := range c.attrs(n) {
			dst = c.appendIf(dst, a, s)
		}
	case axisFollowingSibling, axisPrecedingSibling:
		if n.Parent == nil {
			return dst
		}
		sibs := n.Parent.Children
		idx := indexOf(sibs, n)
		if idx < 0 {
			return dst
		}
		if s.axis == axisFollowingSibling {
			for _, sib := range sibs[idx+1:] {
				dst = c.appendIf(dst, sib, s)
			}
		} else {
			for i := idx - 1; i >= 0; i-- {
				dst = c.appendIf(dst, sibs[i], s)
			}
		}
	case axisFollowing:
		// All nodes after n in document order, excluding descendants:
		// for each ancestor-or-self, the subtrees of its following
		// siblings.
		for cur := n; cur != nil && cur.Parent != nil; cur = cur.Parent {
			sibs := cur.Parent.Children
			for _, sib := range sibs[indexOf(sibs, cur)+1:] {
				dst = c.appendDescendants(c.appendIf(dst, sib, s), sib, s)
			}
		}
	case axisPreceding:
		// All nodes before n in document order, excluding ancestors.
		for cur := n; cur != nil && cur.Parent != nil; cur = cur.Parent {
			sibs := cur.Parent.Children
			for i := indexOf(sibs, cur) - 1; i >= 0; i-- {
				dst = c.appendDescendants(c.appendIf(dst, sibs[i], s), sibs[i], s)
			}
		}
	}
	return dst
}

// appendIf appends n to dst when it passes s's node test.
func (c *evalCtx) appendIf(dst NodeSet, n *xmltree.Node, s *step) NodeSet {
	if matchTest(c, n, s.axis, s.test) {
		dst = append(dst, n)
	}
	return dst
}

// appendDescendants appends n's descendants that pass s's node test, in
// document order.
func (c *evalCtx) appendDescendants(dst NodeSet, n *xmltree.Node, s *step) NodeSet {
	for _, ch := range n.Children {
		dst = c.appendDescendants(c.appendIf(dst, ch, s), ch, s)
	}
	return dst
}

func indexOf(sibs []*xmltree.Node, n *xmltree.Node) int {
	for i, s := range sibs {
		if s == n {
			return i
		}
	}
	return -1
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
	fn, ok := coreFunctions[e.name]
	if !ok {
		return nil, fmt.Errorf("xpath: unknown function %s()", e.name)
	}
	if fn.minArgs > len(e.args) || (fn.maxArgs >= 0 && len(e.args) > fn.maxArgs) {
		return nil, fmt.Errorf("xpath: %s() called with %d arguments", e.name, len(e.args))
	}
	base := len(c.args)
	for _, a := range e.args {
		v, err := a.eval(c)
		if err != nil {
			c.args = c.args[:base]
			return nil, err
		}
		c.args = append(c.args, v)
	}
	v, err := fn.impl(c, c.args[base:])
	c.args = c.args[:base]
	return v, err
}
