package xpath

import (
	"fmt"
	"slices"
	"strconv"
	"unicode/utf8"

	"repro/internal/xmltree"
)

// SyntaxError is the error Compile, and a Parser, return for malformed
// source. Pos is a byte offset into Src.
type SyntaxError struct {
	Src   string // the source handed to Compile or NewParser
	Pos   int    // byte offset into Src where compilation failed
	Msg   string // what went wrong
	query bool   // Src is an XQuery-lite query, read by a Parser
}

// errorContext is how many bytes of the source an error message quotes on
// either side of the failing position, so that the message about a large
// expression (and a rejected rule's 400 body) stays small.
const errorContext = 32

// Error renders the message, quoting the source around Pos.
func (e *SyntaxError) Error() string {
	if e.query {
		return fmt.Sprintf("xq: offset %d: %s, at %q", e.Pos, e.Msg, excerpt(e.Src, e.Pos))
	}
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
	p := &parser{lx: lexer{src: src}}
	root, err := p.parseOr()
	if err == nil && p.peek().Kind != TokEOF {
		err = p.errf("unexpected %s after expression", p.peek().Kind)
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
	window [2]Token // the next tokens, window[:n] filled
	n      int
	lexErr error    // the lexer's error, after which it yields TokEOF
	end    int      // offset after the last token consumed
	depth  int      // nesting levels open; see nested
	vars   []string // every variable reference so far, for Expr.Vars
	// pending is a primary expression parsed by a Parser's caller, which
	// parsePath takes as the start of the operand; see Parser.Continue.
	pending exprNode
}

// fill lexes until the window holds k tokens.
func (p *parser) fill(k int) {
	for ; p.n < k; p.n++ {
		t := &p.window[p.n]
		if p.lexErr == nil {
			if p.lexErr = p.lx.next(t); p.lexErr == nil {
				continue
			}
		}
		*t = Token{Kind: TokEOF, Pos: len(p.lx.src), End: len(p.lx.src)}
	}
}

// drain lexes the rest of the source and returns the lexer's error, if
// any.
func (p *parser) drain() error {
	var t Token
	for p.lexErr == nil {
		if p.lexErr = p.lx.next(&t); p.lexErr == nil && t.Kind == TokEOF {
			return nil
		}
	}
	return p.lexErr
}

func (p *parser) peek() Token {
	if p.n == 0 {
		p.fill(1)
	}
	return p.window[0]
}

func (p *parser) peek2() Token {
	if p.n < 2 {
		p.fill(2)
	}
	return p.window[1]
}

func (p *parser) advance() Token {
	t := p.peek()
	if t.Kind != TokEOF {
		p.window[0] = p.window[1]
		p.n--
		p.end = t.End
	}
	return t
}

func (p *parser) accept(k TokenKind) bool {
	if p.peek().Kind == k {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expect(k TokenKind) (Token, error) {
	if p.peek().Kind != k {
		return Token{}, p.errf("expected %s, found %s", k, p.peek().Kind)
	}
	return p.advance(), nil
}

func (p *parser) errf(format string, args ...any) error {
	return p.lx.errAt(p.peek().Pos, fmt.Sprintf(format, args...))
}

// acceptOpName consumes a TokName with one of the given spellings when it
// appears in operator position, returning the spelling.
func (p *parser) acceptOpName(names ...string) (string, bool) {
	if p.peek().Kind != TokName {
		return "", false
	}
	for _, n := range names {
		if p.peek().Text == n {
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
func (p *parser) acceptSymbol(ops map[TokenKind]string) (string, bool) {
	op, ok := ops[p.peek().Kind]
	if ok {
		p.advance()
	}
	return op, ok
}

var (
	equalityOps   = map[TokenKind]string{TokEq: "=", tokNeq: "!="}
	relationalOps = map[TokenKind]string{TokLt: "<", tokLte: "<=", TokGt: ">", TokGte: ">="}
	additiveOps   = map[TokenKind]string{tokPlus: "+", tokMinus: "-"}
	unionOps      = map[TokenKind]string{tokPipe: "|"}
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
	if p.pending == nil && p.accept(tokMinus) {
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
	switch p.peek().Kind {
	case TokVariable, TokString, tokNumber, TokLParen:
		return true
	case TokName:
		// FunctionName '(' — but node-type tests and axis names are path syntax.
		if p.peek2().Kind == TokLParen && !nodeTypeNames[p.peek().Text] {
			return true
		}
	}
	return false
}

// parsePath := LocationPath | FilterExpr (('/'|'//') RelativeLocationPath)?
// A pending primary is the start of a FilterExpr.
func (p *parser) parsePath() (exprNode, error) {
	if p.pending == nil && !p.startsFilterExpr() {
		return p.parseLocationPath()
	}
	fe := p.pending
	p.pending = nil
	if fe == nil {
		var err error
		if fe, err = p.parsePrimary(); err != nil {
			return nil, err
		}
	}
	if p.peek().Kind == tokLBracket {
		f := &filterExpr{primary: fe}
		for p.peek().Kind == tokLBracket {
			pred, err := p.parsePredicate()
			if err != nil {
				return nil, err
			}
			f.preds = append(f.preds, pred)
		}
		fe = f
	}
	if p.peek().Kind != TokSlash && p.peek().Kind != tokSlashSlash {
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

func (p *parser) parseLocationPath() (exprNode, error) {
	pe := &pathExpr{}
	switch p.peek().Kind {
	case TokSlash:
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
	switch p.peek().Kind {
	case TokName, tokStar, tokAt, tokDot, tokDotDot:
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
		if p.accept(TokSlash) {
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
	switch p.peek().Kind {
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
	} else if p.peek().Kind == TokName && p.peek2().Kind == tokColonColon {
		ax, ok := axisNames[p.peek().Text]
		if !ok {
			return step{}, p.errf("unknown axis %q", excerpt(p.peek().Text, 0))
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
	for p.peek().Kind == tokLBracket {
		pred, err := p.parsePredicate()
		if err != nil {
			return step{}, err
		}
		s.preds = append(s.preds, pred)
	}
	return s, nil
}

func (p *parser) parseNodeTest() (nodeTest, error) {
	switch p.peek().Kind {
	case tokStar:
		p.advance()
		return nodeTest{kind: testAny}, nil
	case TokName:
		name := p.advance().Text
		if nodeTypeNames[name] && p.peek().Kind == TokLParen {
			p.advance()
			if _, err := p.expect(TokRParen); err != nil {
				return nodeTest{}, err
			}
			return nodeTest{kind: testNodeType, nodeType: name}, nil
		}
		if p.accept(TokColon) {
			if p.accept(tokStar) {
				return nodeTest{kind: testNSWildcard, prefix: name}, nil
			}
			local, err := p.expect(TokName)
			if err != nil {
				return nodeTest{}, err
			}
			return nodeTest{kind: testName, prefix: name, local: local.Text}, nil
		}
		return nodeTest{kind: testName, local: name}, nil
	default:
		return nodeTest{}, p.errf("expected a node test, found %s", p.peek().Kind)
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
	switch p.peek().Kind {
	case TokVariable:
		name := p.advance().Text
		p.vars = append(p.vars, name)
		return &varExpr{name}, nil
	case TokString:
		return &literalExpr{p.advance().Text}, nil
	case tokNumber:
		t := p.advance()
		f, err := strconv.ParseFloat(t.Text, 64)
		if err != nil {
			return nil, p.errf("bad number %q", excerpt(t.Text, 0))
		}
		return &literalExpr{f}, nil
	case TokLParen:
		p.advance()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRParen); err != nil {
			return nil, err
		}
		return e, nil
	case TokName:
		name := p.advance().Text
		if p.accept(TokColon) {
			local, err := p.expect(TokName)
			if err != nil {
				return nil, err
			}
			name = name + ":" + local.Text
		}
		if _, err := p.expect(TokLParen); err != nil {
			return nil, err
		}
		var args []exprNode
		if p.peek().Kind != TokRParen {
			for {
				a, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				args = append(args, a)
				if !p.accept(TokComma) {
					break
				}
			}
		}
		if _, err := p.expect(TokRParen); err != nil {
			return nil, err
		}
		return &funcExpr{name, args}, nil
	default:
		return nil, p.errf("expected an expression, found %s", p.peek().Kind)
	}
}
