package xpath

import (
	"fmt"
	"strings"
)

// Expr is a compiled XPath expression. Compile once with Compile, then
// evaluate against any context; compiled expressions are immutable and safe
// for concurrent use.
type Expr struct {
	root exprNode
	src  string
}

// String returns the source text the expression was compiled from.
func (e *Expr) String() string { return e.src }

// exprNode is a node of the expression AST.
type exprNode interface {
	eval(ctx *evalCtx) (object, error)
}

// axis enumerates the supported XPath axes.
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

func (a axis) String() string {
	for n, ax := range axisNames {
		if ax == a {
			return n
		}
	}
	return fmt.Sprintf("axis(%d)", int(a))
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

func (t nodeTest) String() string {
	switch t.kind {
	case testAny:
		return "*"
	case testNSWildcard:
		return t.prefix + ":*"
	case testNodeType:
		return t.nodeType + "()"
	default:
		if t.prefix != "" {
			return t.prefix + ":" + t.local
		}
		return t.local
	}
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

// filterExpr is PrimaryExpr Predicate* without a trailing path.
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

// negExpr is unary minus.
type negExpr struct{ operand exprNode }

// literalExpr is a string literal.
type literalExpr struct{ val string }

// numberExpr is a numeric literal.
type numberExpr struct{ val float64 }

// varExpr is a variable reference $name.
type varExpr struct{ name string }

// funcExpr is a core-library function call.
type funcExpr struct {
	name string
	args []exprNode
}

func (p *pathExpr) describe() string {
	var b strings.Builder
	if p.absolute {
		b.WriteString("/")
	}
	for i, s := range p.steps {
		if i > 0 {
			b.WriteString("/")
		}
		b.WriteString(s.axis.String())
		b.WriteString("::")
		b.WriteString(s.test.String())
	}
	return b.String()
}
