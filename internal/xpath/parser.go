package xpath

import (
	"fmt"
	"strconv"

	"repro/internal/xmltree"
)

// Compile parses an XPath expression into an immutable, reusable Expr.
func Compile(src string) (*Expr, error) {
	tokens, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{tokens: tokens, src: src}
	root, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	if p.peek().kind != tokEOF {
		return nil, p.errf("unexpected %s after expression", p.peek().kind)
	}
	return &Expr{root: root, src: src}, nil
}

// MustCompile is Compile panicking on error, for static expressions.
func MustCompile(src string) *Expr {
	e, err := Compile(src)
	if err != nil {
		panic(err)
	}
	return e
}

type parser struct {
	tokens []token
	pos    int
	src    string
	depth  int // nesting levels open; see nested
}

func (p *parser) peek() token { return p.tokens[p.pos] }
func (p *parser) peek2() token {
	if p.pos+1 < len(p.tokens) {
		return p.tokens[p.pos+1]
	}
	return p.tokens[len(p.tokens)-1]
}
func (p *parser) advance() token {
	t := p.tokens[p.pos]
	if p.pos < len(p.tokens)-1 {
		p.pos++
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

func (p *parser) parseOr() (exprNode, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for {
		if _, ok := p.acceptOpName("or"); !ok {
			return left, nil
		}
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &binaryExpr{"or", left, right}
	}
}

func (p *parser) parseAnd() (exprNode, error) {
	left, err := p.parseEquality()
	if err != nil {
		return nil, err
	}
	for {
		if _, ok := p.acceptOpName("and"); !ok {
			return left, nil
		}
		right, err := p.parseEquality()
		if err != nil {
			return nil, err
		}
		left = &binaryExpr{"and", left, right}
	}
}

func (p *parser) parseEquality() (exprNode, error) {
	left, err := p.parseRelational()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		switch p.peek().kind {
		case tokEq:
			op = "="
		case tokNeq:
			op = "!="
		default:
			return left, nil
		}
		p.advance()
		right, err := p.parseRelational()
		if err != nil {
			return nil, err
		}
		left = &binaryExpr{op, left, right}
	}
}

func (p *parser) parseRelational() (exprNode, error) {
	left, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		switch p.peek().kind {
		case tokLt:
			op = "<"
		case tokLte:
			op = "<="
		case tokGt:
			op = ">"
		case tokGte:
			op = ">="
		default:
			return left, nil
		}
		p.advance()
		right, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		left = &binaryExpr{op, left, right}
	}
}

func (p *parser) parseAdditive() (exprNode, error) {
	left, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		switch p.peek().kind {
		case tokPlus:
			op = "+"
		case tokMinus:
			op = "-"
		default:
			return left, nil
		}
		p.advance()
		right, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		left = &binaryExpr{op, left, right}
	}
}

func (p *parser) parseMultiplicative() (exprNode, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		if p.peek().kind == tokStar {
			op = "*"
			p.advance()
		} else if name, ok := p.acceptOpName("div", "mod"); ok {
			op = name
		} else {
			return left, nil
		}
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = &binaryExpr{op, left, right}
	}
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
	left, err := p.parsePath()
	if err != nil {
		return nil, err
	}
	for p.accept(tokPipe) {
		right, err := p.parsePath()
		if err != nil {
			return nil, err
		}
		left = &binaryExpr{"|", left, right}
	}
	return left, nil
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
			return step{}, p.errf("unknown axis %q", p.peek().text)
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
		return &varExpr{p.advance().text}, nil
	case tokString:
		return &literalExpr{p.advance().text}, nil
	case tokNumber:
		t := p.advance()
		f, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, p.errf("bad number %q", t.text)
		}
		return &numberExpr{f}, nil
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
