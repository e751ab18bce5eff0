package xpath

import (
	"fmt"
	"slices"
	"strconv"
	"unicode/utf8"

	"repro/internal/xmltree"
)

// SyntaxError is the error Compile returns for malformed expressions. Pos
// is a byte offset into Src; embedding compilers (internal/xq carves XPath
// spans out of XQuery-lite source) translate it into their own coordinate
// space instead of re-parsing the message.
type SyntaxError struct {
	Src string // the expression source handed to Compile
	Pos int    // byte offset into Src where compilation failed
	Msg string // what went wrong
}

// errorContext is how many bytes of the source an error message quotes on
// either side of the failing position, so that the message about a large
// expression (and a rejected rule's 400 body) stays small.
const errorContext = 32

// Error renders the historical message shape, quoting the source around
// Pos.
func (e *SyntaxError) Error() string {
	return fmt.Sprintf("xpath: %q: position %d: %s", excerpt(e.Src, e.Pos), e.Pos, e.Msg)
}

// excerpt is src around pos: all of it when it is short, else about
// errorContext bytes on either side, widened to whole runes (by at most a
// rune's length, however invalid the UTF-8), with "…" where cut.
func excerpt(src string, pos int) string {
	from, to := max(0, pos-errorContext), min(len(src), pos+errorContext)
	for i := 1; i < utf8.UTFMax && from > 0 && !utf8.RuneStart(src[from]); i++ {
		from--
	}
	for i := 1; i < utf8.UTFMax && to < len(src) && !utf8.RuneStart(src[to]); i++ {
		to++
	}
	s := src[from:to]
	if from > 0 {
		s = "…" + s
	}
	if to < len(src) {
		s += "…"
	}
	return s
}

// Compile parses an XPath expression into an immutable, reusable Expr.
func Compile(src string) (*Expr, error) {
	p := &parser{lx: lexer{src: src}, src: src}
	root, err := p.parseOr()
	if err == nil && p.peek().kind != tokEOF {
		err = p.errf("unexpected %s after expression", p.peek().kind)
	}
	// A malformed token anywhere in the source is the error, as if the
	// whole source had been tokenized before parsing.
	if lexErr := p.drain(); lexErr != nil {
		return nil, lexErr
	}
	if err != nil {
		return nil, err
	}
	return &Expr{root: root, src: src, vars: distinct(p.vars)}, nil
}

// distinct drops the repeats from names, keeping the first of each.
func distinct(names []string) []string {
	if len(names) < 2 {
		return names
	}
	seen := make(map[string]bool, len(names))
	out := names[:0]
	for _, n := range names {
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	return out
}

// MustCompile is Compile panicking on error, for static expressions.
func MustCompile(src string) *Expr {
	e, err := Compile(src)
	if err != nil {
		panic(err)
	}
	return e
}

// parser reads the source through a two-token window, so a large
// expression is never held as a slice of tokens.
type parser struct {
	lx     lexer
	window [2]token // the next tokens, window[:n] filled
	n      int
	lexErr error // the lexer's error, after which it yields tokEOF
	src    string
	depth  int      // nesting levels open; see nested
	vars   []string // every variable reference so far, for Expr.Vars
}

// fill lexes until the window holds k tokens.
func (p *parser) fill(k int) {
	for p.n < k {
		t := token{kind: tokEOF, pos: len(p.src)}
		if p.lexErr == nil {
			if next, err := p.lx.next(); err != nil {
				p.lexErr = err
			} else {
				t = next
			}
		}
		p.window[p.n] = t
		p.n++
	}
}

// drain lexes the rest of the source and returns the lexer's error, if
// any.
func (p *parser) drain() error {
	for p.lexErr == nil {
		t, err := p.lx.next()
		if err != nil {
			p.lexErr = err
		} else if t.kind == tokEOF {
			return nil
		}
	}
	return p.lexErr
}

func (p *parser) peek() token {
	p.fill(1)
	return p.window[0]
}

func (p *parser) peek2() token {
	p.fill(2)
	return p.window[1]
}

func (p *parser) advance() token {
	t := p.peek()
	if t.kind != tokEOF {
		p.window[0] = p.window[1]
		p.n--
	}
	return t
}

func (p *parser) accept(k tokenKind) bool {
	if p.peek().kind == k {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expect(k tokenKind) (token, error) {
	if p.peek().kind != k {
		return token{}, p.errf("expected %s, found %s", k, p.peek().kind)
	}
	return p.advance(), nil
}

func (p *parser) errf(format string, args ...any) error {
	return &SyntaxError{Src: p.src, Pos: p.peek().pos, Msg: fmt.Sprintf(format, args...)}
}

// acceptOpName consumes a tokName with one of the given spellings when it
// appears in operator position, returning the spelling.
func (p *parser) acceptOpName(names ...string) (string, bool) {
	if p.peek().kind != tokName {
		return "", false
	}
	for _, n := range names {
		if p.peek().text == n {
			p.advance()
			return n, true
		}
	}
	return "", false
}

// nested parses one nesting level: a parenthesized expression, a
// predicate, a function argument or a negated operand. An expression nested
// deeper than xmltree.MaxDepth levels is refused, which bounds the parser's
// recursion and every recursive walk of the tree it builds.
func (p *parser) nested(parse func() (exprNode, error)) (exprNode, error) {
	if p.depth == xmltree.MaxDepth {
		return nil, p.errf("expression nested deeper than %d levels", xmltree.MaxDepth)
	}
	p.depth++
	defer func() { p.depth-- }()
	return parse()
}

// parseExpr := OrExpr, one level deeper than the enclosing expression.
func (p *parser) parseExpr() (exprNode, error) { return p.nested(p.parseOr) }

// chain parses operand (op operand)*, one precedence level of binary
// operators, into a single chainExpr however long the chain: its height is
// 1, so long chains cost neither parser nor evaluator recursion.
func (p *parser) chain(operand func() (exprNode, error), op func() (string, bool)) (exprNode, error) {
	first, err := operand()
	if err != nil {
		return nil, err
	}
	var c *chainExpr
	for {
		o, ok := op()
		if !ok {
			break
		}
		next, err := operand()
		if err != nil {
			return nil, err
		}
		if c == nil {
			c = &chainExpr{operands: []exprNode{first}}
		}
		c.ops = append(c.ops, o)
		c.operands = append(c.operands, next)
	}
	if c == nil {
		return first, nil
	}
	if ac := attrComparison(c); ac != nil {
		return ac, nil
	}
	return c, nil
}

// attrComparison returns c as an attrCompare when it is one comparison
// between @name and another operand, else nil.
func attrComparison(c *chainExpr) exprNode {
	if len(c.ops) != 1 {
		return nil
	}
	switch c.ops[0] {
	case "=", "!=", "<", "<=", ">", ">=":
	default:
		return nil
	}
	for i, operand := range c.operands {
		if p, ok := operand.(*pathExpr); ok && !p.absolute && p.start == nil && len(p.steps) == 1 {
			if s := p.steps[0]; s.axis == axisAttribute && s.test.kind == testName && len(s.preds) == 0 {
				return &attrCompare{attr: s.test, op: c.ops[0], other: c.operands[1-i], attrLeft: i == 0}
			}
		}
	}
	return nil
}

// acceptSymbol consumes an operator token of one of the kinds in ops,
// returning its spelling.
func (p *parser) acceptSymbol(ops map[tokenKind]string) (string, bool) {
	op, ok := ops[p.peek().kind]
	if ok {
		p.advance()
	}
	return op, ok
}

var (
	equalityOps   = map[tokenKind]string{tokEq: "=", tokNeq: "!="}
	relationalOps = map[tokenKind]string{tokLt: "<", tokLte: "<=", tokGt: ">", tokGte: ">="}
	additiveOps   = map[tokenKind]string{tokPlus: "+", tokMinus: "-"}
	unionOps      = map[tokenKind]string{tokPipe: "|"}
)

func (p *parser) parseOr() (exprNode, error) {
	return p.chain(p.parseAnd, func() (string, bool) { return p.acceptOpName("or") })
}

func (p *parser) parseAnd() (exprNode, error) {
	return p.chain(p.parseEquality, func() (string, bool) { return p.acceptOpName("and") })
}

func (p *parser) parseEquality() (exprNode, error) {
	return p.chain(p.parseRelational, func() (string, bool) { return p.acceptSymbol(equalityOps) })
}

func (p *parser) parseRelational() (exprNode, error) {
	return p.chain(p.parseAdditive, func() (string, bool) { return p.acceptSymbol(relationalOps) })
}

func (p *parser) parseAdditive() (exprNode, error) {
	return p.chain(p.parseMultiplicative, func() (string, bool) { return p.acceptSymbol(additiveOps) })
}

func (p *parser) parseMultiplicative() (exprNode, error) {
	return p.chain(p.parseUnary, func() (string, bool) {
		if p.accept(tokStar) {
			return "*", true
		}
		return p.acceptOpName("div", "mod")
	})
}

func (p *parser) parseUnary() (exprNode, error) {
	if p.accept(tokMinus) {
		operand, err := p.nested(p.parseUnary)
		if err != nil {
			return nil, err
		}
		return &negExpr{operand}, nil
	}
	return p.parseUnion()
}

func (p *parser) parseUnion() (exprNode, error) {
	return p.chain(p.parsePath, func() (string, bool) { return p.acceptSymbol(unionOps) })
}

// nodeTypeNames are the node tests that look like function calls.
var nodeTypeNames = map[string]bool{"node": true, "text": true, "comment": true, "processing-instruction": true}

// startsFilterExpr decides whether the upcoming tokens begin a FilterExpr
// (primary expression) rather than a location path.
func (p *parser) startsFilterExpr() bool {
	switch p.peek().kind {
	case tokVariable, tokString, tokNumber, tokLParen:
		return true
	case tokName:
		// FunctionName '(' — but node-type tests and axis names are path syntax.
		if p.peek2().kind == tokLParen && !nodeTypeNames[p.peek().text] {
			return true
		}
	}
	return false
}

// parsePath := LocationPath | FilterExpr (('/'|'//') RelativeLocationPath)?
func (p *parser) parsePath() (exprNode, error) {
	if p.startsFilterExpr() {
		primary, err := p.parsePrimary()
		if err != nil {
			return nil, err
		}
		var preds []exprNode
		for p.peek().kind == tokLBracket {
			pred, err := p.parsePredicate()
			if err != nil {
				return nil, err
			}
			preds = append(preds, pred)
		}
		fe := exprNode(&filterExpr{primary, preds})
		if p.peek().kind != tokSlash && p.peek().kind != tokSlashSlash {
			return fe, nil
		}
		pe := &pathExpr{start: fe}
		if p.accept(tokSlashSlash) {
			pe.steps = append(pe.steps, step{axis: axisDescendantOrSelf, test: nodeTest{kind: testNodeType, nodeType: "node"}})
		} else {
			p.advance() // '/'
		}
		if err := p.parseRelativePath(pe); err != nil {
			return nil, err
		}
		return pe, nil
	}
	return p.parseLocationPath()
}

func (p *parser) parseLocationPath() (exprNode, error) {
	pe := &pathExpr{}
	switch p.peek().kind {
	case tokSlash:
		p.advance()
		pe.absolute = true
		if !p.startsStep() {
			return pe, nil // bare "/" selects the root
		}
	case tokSlashSlash:
		p.advance()
		pe.absolute = true
		pe.steps = append(pe.steps, step{axis: axisDescendantOrSelf, test: nodeTest{kind: testNodeType, nodeType: "node"}})
	}
	if err := p.parseRelativePath(pe); err != nil {
		return nil, err
	}
	return pe, nil
}

func (p *parser) startsStep() bool {
	switch p.peek().kind {
	case tokName, tokStar, tokAt, tokDot, tokDotDot:
		return true
	}
	return false
}

func (p *parser) parseRelativePath(pe *pathExpr) error {
	for {
		s, err := p.parseStep()
		if err != nil {
			return err
		}
		if last := len(pe.steps) - 1; last >= 0 && canFuse(pe.steps[last], s) {
			s.axis = axisDescendant
			pe.steps = pe.steps[:last]
		}
		pe.steps = append(pe.steps, s)
		if p.accept(tokSlashSlash) {
			pe.steps = append(pe.steps, step{axis: axisDescendantOrSelf, test: nodeTest{kind: testNodeType, nodeType: "node"}})
			continue
		}
		if p.accept(tokSlash) {
			continue
		}
		return nil
	}
}

// canFuse reports whether descendant-or-self::node()/child::X[p] (what
// //X[p] abbreviates) may be evaluated as descendant::X[p], one walk of
// the subtree instead of a list of all its nodes. Both select the same
// nodes when every predicate is a boolean that does not read the context
// position or size; a positional //x[1] selects the first x of each
// parent, not the first x below.
func canFuse(prev, s step) bool {
	if prev.axis != axisDescendantOrSelf || prev.test.kind != testNodeType || prev.test.nodeType != "node" ||
		len(prev.preds) > 0 || s.axis != axisChild {
		return false
	}
	for _, pred := range s.preds {
		if !isBoolean(pred) || readsPosition(pred) {
			return false
		}
	}
	return true
}

// isBoolean reports whether e always evaluates to a boolean: a comparison,
// and, or, or a boolean function.
func isBoolean(e exprNode) bool {
	switch e := e.(type) {
	case *chainExpr:
		switch e.ops[0] {
		case "and", "or", "=", "!=", "<", "<=", ">", ">=":
			return true
		}
	case *attrCompare:
		return true
	case *funcExpr:
		switch e.name {
		case "not", "true", "false", "boolean", "contains", "starts-with", "ends-with":
			return true
		}
	}
	return false
}

// readsPosition reports whether e calls position() or last() in its own
// context, outside the predicates of a nested step or filter, which have
// contexts of their own.
func readsPosition(e exprNode) bool {
	switch e := e.(type) {
	case *chainExpr:
		return slices.ContainsFunc(e.operands, readsPosition)
	case *negExpr:
		return readsPosition(e.operand)
	case *attrCompare:
		return readsPosition(e.other)
	case *funcExpr:
		return e.name == "position" || e.name == "last" || slices.ContainsFunc(e.args, readsPosition)
	case *filterExpr:
		return readsPosition(e.primary)
	case *pathExpr:
		return e.start != nil && readsPosition(e.start)
	}
	return false
}

func (p *parser) parseStep() (step, error) {
	switch p.peek().kind {
	case tokDot:
		p.advance()
		return step{axis: axisSelf, test: nodeTest{kind: testNodeType, nodeType: "node"}}, nil
	case tokDotDot:
		p.advance()
		return step{axis: axisParent, test: nodeTest{kind: testNodeType, nodeType: "node"}}, nil
	}
	s := step{axis: axisChild}
	if p.accept(tokAt) {
		s.axis = axisAttribute
	} else if p.peek().kind == tokName && p.peek2().kind == tokColonColon {
		ax, ok := axisNames[p.peek().text]
		if !ok {
			return step{}, p.errf("unknown axis %q", excerpt(p.peek().text, 0))
		}
		p.advance()
		p.advance()
		s.axis = ax
	}
	test, err := p.parseNodeTest()
	if err != nil {
		return step{}, err
	}
	s.test = test
	for p.peek().kind == tokLBracket {
		pred, err := p.parsePredicate()
		if err != nil {
			return step{}, err
		}
		s.preds = append(s.preds, pred)
	}
	return s, nil
}

func (p *parser) parseNodeTest() (nodeTest, error) {
	switch p.peek().kind {
	case tokStar:
		p.advance()
		return nodeTest{kind: testAny}, nil
	case tokName:
		name := p.advance().text
		if nodeTypeNames[name] && p.peek().kind == tokLParen {
			p.advance()
			if _, err := p.expect(tokRParen); err != nil {
				return nodeTest{}, err
			}
			return nodeTest{kind: testNodeType, nodeType: name}, nil
		}
		if p.accept(tokColon) {
			if p.accept(tokStar) {
				return nodeTest{kind: testNSWildcard, prefix: name}, nil
			}
			local, err := p.expect(tokName)
			if err != nil {
				return nodeTest{}, err
			}
			return nodeTest{kind: testName, prefix: name, local: local.text}, nil
		}
		return nodeTest{kind: testName, local: name}, nil
	default:
		return nodeTest{}, p.errf("expected a node test, found %s", p.peek().kind)
	}
}

func (p *parser) parsePredicate() (exprNode, error) {
	if _, err := p.expect(tokLBracket); err != nil {
		return nil, err
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokRBracket); err != nil {
		return nil, err
	}
	return e, nil
}

func (p *parser) parsePrimary() (exprNode, error) {
	switch p.peek().kind {
	case tokVariable:
		name := p.advance().text
		p.vars = append(p.vars, name)
		return &varExpr{name}, nil
	case tokString:
		return &literalExpr{p.advance().text}, nil
	case tokNumber:
		t := p.advance()
		f, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, p.errf("bad number %q", excerpt(t.text, 0))
		}
		return &literalExpr{f}, nil
	case tokLParen:
		p.advance()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		return e, nil
	case tokName:
		name := p.advance().text
		if p.accept(tokColon) {
			local, err := p.expect(tokName)
			if err != nil {
				return nil, err
			}
			name = name + ":" + local.text
		}
		if _, err := p.expect(tokLParen); err != nil {
			return nil, err
		}
		var args []exprNode
		if p.peek().kind != tokRParen {
			for {
				a, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				args = append(args, a)
				if !p.accept(tokComma) {
					break
				}
			}
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		return &funcExpr{name, args}, nil
	default:
		return nil, p.errf("expected an expression, found %s", p.peek().kind)
	}
}
