package xpath

// Expr is a compiled XPath expression. Compile once with Compile, then
// evaluate against any context; compiled expressions are immutable and safe
// for concurrent use.
type Expr struct {
	root exprNode
	src  string
	vars []string
}

// String returns the source text the expression was compiled from.
func (e *Expr) String() string { return e.src }

// Uses lists the variables the expression references, each once, in order
// of first reference. Evaluation reads no other Context.Vars entry. The
// slice is shared: callers must not modify it.
func (e *Expr) Uses() []string { return e.vars }

// exprNode is a node of the expression AST.
type exprNode interface {
	eval(ctx *evalCtx) (object, error)
}

// axis enumerates the supported XPath axes, the downward ones first.
type axis int

const (
	axisChild axis = iota
	axisDescendant
	axisDescendantOrSelf
	axisSelf
	axisParent
	axisAncestor
	axisAncestorOrSelf
	axisAttribute
	axisFollowingSibling
	axisPrecedingSibling
	axisFollowing
	axisPreceding
)

var axisNames = map[string]axis{
	"child":              axisChild,
	"descendant":         axisDescendant,
	"descendant-or-self": axisDescendantOrSelf,
	"self":               axisSelf,
	"parent":             axisParent,
	"ancestor":           axisAncestor,
	"ancestor-or-self":   axisAncestorOrSelf,
	"attribute":          axisAttribute,
	"following-sibling":  axisFollowingSibling,
	"preceding-sibling":  axisPrecedingSibling,
	"following":          axisFollowing,
	"preceding":          axisPreceding,
}

// testKind discriminates node tests.
type testKind int

const (
	testName       testKind = iota // QName or NCName
	testAny                        // *
	testNSWildcard                 // prefix:*
	testNodeType                   // node(), text(), comment()
)

// nodeTest selects nodes on an axis.
type nodeTest struct {
	kind     testKind
	prefix   string // as written; resolved at evaluation time
	local    string
	nodeType string // "node", "text", "comment"
}

// step is one location step: axis::test[pred]...
type step struct {
	axis  axis
	test  nodeTest
	preds []exprNode
}

// pathExpr is a location path, optionally rooted at a filter expression
// (FilterExpr '/' RelativeLocationPath).
type pathExpr struct {
	absolute bool     // starts with '/'
	start    exprNode // nil: context node (or root if absolute)
	steps    []step
}

// filterExpr is PrimaryExpr Predicate+ without a trailing path; a primary
// without predicates is its own node.
type filterExpr struct {
	primary exprNode
	preds   []exprNode
}

// chainExpr is a left-associative chain of binary operators of one
// precedence level — or, and, = !=, < <= > >=, + -, * div mod, or | —
// applied as operands[0] ops[0] operands[1] ops[1] operands[2] …, so
// len(operands) == len(ops)+1.
type chainExpr struct {
	operands []exprNode
	ops      []string
}

// attrCompare is @name op other, or other op @name, for a comparison op:
// it compares the context node's attribute value without making the
// attribute a node.
type attrCompare struct {
	attr     nodeTest // a name test
	op       string
	other    exprNode
	attrLeft bool
}

// negExpr is unary minus.
type negExpr struct{ operand exprNode }

// literalExpr is a string or numeric literal, its value boxed once, at
// compile.
type literalExpr struct{ val object }

// varExpr is a variable reference $name.
type varExpr struct{ name string }

// funcExpr is a core-library function call.
type funcExpr struct {
	name string
	args []exprNode
}
