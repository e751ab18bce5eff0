package xpath

import (
	"fmt"
	"slices"

	"repro/internal/xmltree"
)

// Parser reads an XQuery-lite query for internal/xq, which extends the
// XPath grammar: xq reads its own productions (FLWOR, if, sequences,
// constructors) from the token stream, and hands each operand to the
// grammar Compile uses, which alone decides where the operand ends. The
// lexer runs in query mode, and every position is a byte offset into the
// one source.
type Parser struct{ p parser }

// NewParser returns a Parser at the start of src.
func NewParser(src string) *Parser {
	return &Parser{parser{lx: lexer{src: src, query: true}}}
}

// Peek returns the next token without consuming it.
func (q *Parser) Peek() Token { return q.p.peek() }

// Peek2 returns the token after the next one.
func (q *Parser) Peek2() Token { return q.p.peek2() }

// Next consumes the next token and returns it.
func (q *Parser) Next() Token { return q.p.advance() }

// Err is the lexer's error once it has failed; from there on every token
// reads as TokEOF.
func (q *Parser) Err() error { return q.p.lexErr }

// Resume drops the tokens read ahead and lexes on from offset: a direct
// constructor's content and attribute values are read as characters.
func (q *Parser) Resume(offset int) {
	q.p.n, q.p.lexErr, q.p.lx.pos = 0, nil, offset
}

// Errorf returns the *SyntaxError at offset pos.
func (q *Parser) Errorf(pos int, format string, args ...any) error {
	return q.p.lx.errAt(pos, fmt.Sprintf(format, args...))
}

// Enter opens one nesting level, counted with the XPath grammar's own
// (parentheses, predicates, arguments): a query nested deeper than
// xmltree.MaxDepth levels is refused. Each successful Enter is paired with
// Leave.
func (q *Parser) Enter() error {
	if q.p.depth == xmltree.MaxDepth {
		return q.p.errf("expression nested deeper than %d levels", xmltree.MaxDepth)
	}
	q.p.depth++
	return nil
}

// Leave closes the level the last Enter opened.
func (q *Parser) Leave() { q.p.depth-- }

// Operand parses one operand, an OrExpr, from the next token, and stops
// where the grammar stops.
func (q *Parser) Operand() (*Expr, error) {
	start := q.p.peek().Pos
	q.p.vars = nil
	return q.p.operand(start)
}

// Continues reports whether the next token continues an operand after a
// primary expression: a predicate, a path or a binary operator follows.
func (q *Parser) Continues() bool {
	t := q.p.peek()
	switch t.Kind {
	case tokLBracket, TokSlash, tokSlashSlash, tokPipe, tokStar, tokPlus, tokMinus,
		TokEq, tokNeq, TokLt, tokLte, TokGt, TokGte:
		return true
	case TokName:
		return t.Text == "and" || t.Text == "or" || t.Text == "div" || t.Text == "mod"
	}
	return false
}

// Continue parses the rest of an operand whose primary expression, read by
// the caller from offset start, is primary: a parenthesized expression, as
// in (1 + 2) * 3, or a function call, as in count($x) > 2.
func (q *Parser) Continue(start int, primary *Expr) (*Expr, error) {
	q.p.vars = slices.Clip(primary.vars)
	q.p.pending = primary.root
	return q.p.operand(start)
}

// operand parses an OrExpr into an Expr whose source is src[start:] up to
// the last token read.
func (p *parser) operand(start int) (*Expr, error) {
	root, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	return &Expr{root: root, src: p.lx.src[start:p.end], vars: distinct(p.vars)}, nil
}

// Call is the function call name(args...), for arguments parsed one by
// one, as the primary of Continue.
func Call(name string, args []*Expr) *Expr {
	f := &funcExpr{name: name, args: make([]exprNode, len(args))}
	var vars []string
	for i, a := range args {
		f.args[i] = a.root
		vars = append(vars, a.vars...)
	}
	return &Expr{root: f, vars: distinct(vars)}
}
