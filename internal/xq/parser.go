package xq

import (
	"slices"
	"strings"

	"repro/internal/xpath"
)

// qexpr is a node of the XQuery-lite AST.
type qexpr interface {
	eval(ev *evaluator) (Sequence, error)
}

// parser reads XQuery-lite from the XPath token stream: the productions
// here are xq's own, and every operand is parsed by the XPath grammar,
// which alone decides where it ends. Only the content and attribute values
// of a direct constructor are read as characters.
type parser struct {
	*xpath.Parser
	src string
	// bound holds the variables in scope, innermost last; free the ones
	// read out of any binding's scope, for Query.Vars.
	bound, free names
}

// accept consumes the next token when it is the name word.
func (p *parser) accept(word string) bool {
	if t := p.Peek(); t.Kind == xpath.TokName && t.Text == word {
		p.Next()
		return true
	}
	return false
}

// acceptKind consumes the next token when it is of kind k.
func (p *parser) acceptKind(k xpath.TokenKind) bool {
	if p.Peek().Kind == k {
		p.Next()
		return true
	}
	return false
}

func (p *parser) expect(word string) error {
	if !p.accept(word) {
		return p.unexpected("%q", word)
	}
	return nil
}

func (p *parser) expectKind(k xpath.TokenKind) error {
	if !p.acceptKind(k) {
		return p.unexpected("%s", k)
	}
	return nil
}

// unexpected is the error for a next token that is not the one described.
func (p *parser) unexpected(format string, args ...any) error {
	t := p.Peek()
	return p.Errorf(t.Pos, "expected "+format+", found %s", append(args, t.Kind)...)
}

// nest parses one nesting level; see xpath.Parser.Enter.
func (p *parser) nest(parse func() (qexpr, error)) (qexpr, error) {
	if err := p.Enter(); err != nil {
		return nil, err
	}
	defer p.Leave()
	return parse()
}

// expr := ExprSingle (',' ExprSingle)*
func (p *parser) expr() (qexpr, error) {
	first, err := p.exprSingle()
	if err != nil || p.Peek().Kind != xpath.TokComma {
		return first, err
	}
	items := []qexpr{first}
	for p.acceptKind(xpath.TokComma) {
		e, err := p.exprSingle()
		if err != nil {
			return nil, err
		}
		items = append(items, e)
	}
	return &seqExpr{items}, nil
}

// exprSingle is a FLWOR, an if, a direct constructor, a parenthesized
// expression, an xq-level function call or an XPath operand. As in
// XQuery, for and let start a FLWOR only before a $variable, and if only
// before '(': elsewhere each is a path step.
func (p *parser) exprSingle() (qexpr, error) {
	t, next := p.Peek(), p.Peek2()
	switch {
	case t.Kind == xpath.TokName && (t.Text == "for" || t.Text == "let") && next.Kind == xpath.TokVariable:
		return p.nest(p.flwor)
	case t.Kind == xpath.TokName && t.Text == "if" && next.Kind == xpath.TokLParen:
		return p.nest(p.conditional)
	case t.Kind == xpath.TokLt && next.Kind == xpath.TokName && next.Pos == t.End:
		return p.nest(func() (qexpr, error) {
			ce, end, err := p.element()
			if err != nil {
				return nil, err
			}
			p.Resume(end)
			return ce, nil
		})
	case t.Kind == xpath.TokLParen:
		return p.nest(p.parenthesized)
	case t.Kind == xpath.TokName && xqFunctions[t.Text] && next.Kind == xpath.TokLParen:
		return p.nest(p.call)
	}
	x, err := p.Operand()
	if err != nil {
		return nil, err
	}
	return p.operand(x), nil
}

// asXPath is e as an XPath expression, when it is one: an operand, or an
// xq-level call whose arguments all are.
func asXPath(e qexpr) (*xpath.Expr, bool) {
	switch e := e.(type) {
	case *xpathExpr:
		return e.compiled, true
	case *xqFuncExpr:
		args := make([]*xpath.Expr, len(e.args))
		for i, a := range e.args {
			x, ok := asXPath(a)
			if !ok {
				return nil, false
			}
			args[i] = x
		}
		return xpath.Call(e.name, args), true
	}
	return nil, false
}

// parenthesized reads '(' Expr? ')': the empty sequence, a sequence, or a
// parenthesized XPath expression, which the XPath grammar continues, as in
// (1 + 2) * 3 or (//car)[1].
func (p *parser) parenthesized() (qexpr, error) {
	open := p.Next()
	if p.acceptKind(xpath.TokRParen) {
		return &seqExpr{}, nil
	}
	e, err := p.expr()
	if err != nil {
		return nil, err
	}
	if err := p.expectKind(xpath.TokRParen); err != nil {
		return nil, err
	}
	if x, ok := asXPath(e); ok {
		x, err := p.Continue(open.Pos, x)
		if err != nil {
			return nil, err
		}
		return p.operand(x), nil
	}
	return e, nil
}

// --- FLWOR --------------------------------------------------------------------

type flworExpr struct {
	clauses []clause
	ret     qexpr
}

type clause interface{ isClause() }

type forBinding struct {
	name string
	// pos is the positional variable of "for $x at $pos in …"; empty when
	// absent.
	pos string
	src qexpr
}
type forClause struct{ bindings []forBinding }
type letClause struct{ bindings []forBinding }
type whereClause struct{ cond qexpr }
type orderKey struct {
	key  qexpr
	desc bool
}
type orderClause struct{ keys []orderKey }

func (forClause) isClause()   {}
func (letClause) isClause()   {}
func (whereClause) isClause() {}
func (orderClause) isClause() {}

// flwor reads a FLWOR expression. Its variables are in scope from their
// binding to the end of its return clause.
func (p *parser) flwor() (qexpr, error) {
	f := &flworExpr{}
	defer p.bound.truncate(len(p.bound.list))
	for {
		t := p.Next()
		kw := ""
		if t.Kind == xpath.TokName {
			kw = t.Text
		}
		switch kw {
		case "for", "let":
			var bs []forBinding
			for {
				b, err := p.binding(kw == "for")
				if err != nil {
					return nil, err
				}
				bs = append(bs, b)
				if !p.acceptKind(xpath.TokComma) {
					break
				}
			}
			if kw == "for" {
				f.clauses = append(f.clauses, forClause{bs})
			} else {
				f.clauses = append(f.clauses, letClause{bs})
			}
		case "where":
			cond, err := p.exprSingle()
			if err != nil {
				return nil, err
			}
			f.clauses = append(f.clauses, whereClause{cond})
		case "order":
			if err := p.expect("by"); err != nil {
				return nil, err
			}
			oc := orderClause{}
			for {
				key, err := p.exprSingle()
				if err != nil {
					return nil, err
				}
				k := orderKey{key: key, desc: p.accept("descending")}
				if !k.desc {
					p.accept("ascending")
				}
				oc.keys = append(oc.keys, k)
				if !p.acceptKind(xpath.TokComma) {
					break
				}
			}
			f.clauses = append(f.clauses, oc)
		case "return":
			ret, err := p.exprSingle()
			if err != nil {
				return nil, err
			}
			f.ret = ret
			return f, nil
		default:
			return nil, p.Errorf(t.Pos, "expected for, let, where, order by or return, found %s", t.Kind)
		}
	}
}

// binding reads $name, then "at $pos in" or "in" in a for clause and ":="
// in a let clause, then the bound expression.
func (p *parser) binding(isFor bool) (forBinding, error) {
	v := p.Next()
	if v.Kind != xpath.TokVariable {
		return forBinding{}, p.Errorf(v.Pos, "expected $variable, found %s", v.Kind)
	}
	b := forBinding{name: v.Text}
	var err error
	switch {
	case !isFor:
		err = p.expectKind(xpath.TokAssign)
	case p.accept("at"):
		pos := p.Next()
		if pos.Kind != xpath.TokVariable {
			return forBinding{}, p.Errorf(pos.Pos, "expected $variable after at, found %s", pos.Kind)
		}
		b.pos = pos.Text
		fallthrough
	default:
		err = p.expect("in")
	}
	if err != nil {
		return forBinding{}, err
	}
	if b.src, err = p.exprSingle(); err != nil {
		return forBinding{}, err
	}
	p.bound.add(b.name)
	if b.pos != "" {
		p.bound.add(b.pos)
	}
	return b, nil
}

// --- if/then/else ---------------------------------------------------------------

type ifExpr struct{ cond, then, els qexpr }

func (p *parser) conditional() (qexpr, error) {
	p.Next() // if
	p.Next() // (
	cond, err := p.expr()
	if err != nil {
		return nil, err
	}
	if err := p.expectKind(xpath.TokRParen); err != nil {
		return nil, err
	}
	if err := p.expect("then"); err != nil {
		return nil, err
	}
	then, err := p.exprSingle()
	if err != nil {
		return nil, err
	}
	if err := p.expect("else"); err != nil {
		return nil, err
	}
	els, err := p.exprSingle()
	if err != nil {
		return nil, err
	}
	return &ifExpr{cond, then, els}, nil
}

// --- sequences -------------------------------------------------------------------

type seqExpr struct{ items []qexpr }

// --- xq-level function calls -------------------------------------------------------

// xqFunctions are functions whose results or arguments need full sequence
// semantics; they are recognized at expression head position.
var xqFunctions = map[string]bool{
	"distinct-values": true,
	"string-join":     true,
	"exists":          true,
	"empty":           true,
	"reverse":         true,
	"min":             true,
	"max":             true,
	"avg":             true,
	"count":           true,
	"sum":             true,
}

type xqFuncExpr struct {
	name string
	args []qexpr
}

// call reads an xq-level function call at the head of an expression. When
// a predicate, a path or an operator follows it, it is an XPath function
// call, XPath's core library serves count() and sum() there, and the XPath
// grammar continues the operand.
func (p *parser) call() (qexpr, error) {
	name := p.Next()
	p.Next() // (
	f := &xqFuncExpr{name: name.Text}
	if !p.acceptKind(xpath.TokRParen) {
		for {
			a, err := p.exprSingle()
			if err != nil {
				return nil, err
			}
			f.args = append(f.args, a)
			if !p.acceptKind(xpath.TokComma) {
				break
			}
		}
		if err := p.expectKind(xpath.TokRParen); err != nil {
			return nil, err
		}
	}
	if !p.Continues() {
		return f, nil
	}
	x, ok := asXPath(f)
	if !ok {
		return nil, p.Errorf(p.Peek().Pos, "an argument of %s() is not an XPath expression, so the call cannot be an XPath operand", f.name)
	}
	x, err := p.Continue(name.Pos, x)
	if err != nil {
		return nil, err
	}
	return p.operand(x), nil
}

// --- XPath operands ----------------------------------------------------------------

type xpathExpr struct{ compiled *xpath.Expr }

// --- direct element constructors --------------------------------------------------

// attrPart and contentPart alternate literal text with enclosed expressions.
type part struct {
	text string
	expr qexpr // non-nil for enclosed expressions
}

type attrTemplate struct {
	prefix, local string
	parts         []part
}

type constructorExpr struct {
	prefix, local string
	attrs         []attrTemplate
	content       []constructorContent
}

type constructorContent struct {
	text  string           // literal text (non-boundary)
	expr  qexpr            // enclosed expression
	fresh bool             // expr yields only nodes it constructs; see constructs
	child *constructorExpr // nested element
}

// constructs reports whether every node e yields is an element that e
// itself constructs, referenced by no variable and no document. The
// enclosing element then adopts those nodes instead of copying them.
func constructs(e qexpr) bool {
	switch e := e.(type) {
	case *constructorExpr:
		return true
	case *flworExpr:
		return constructs(e.ret)
	case *ifExpr:
		return constructs(e.then) && constructs(e.els)
	case *seqExpr:
		for _, it := range e.items {
			if !constructs(it) {
				return false
			}
		}
		return true
	}
	return false
}

// element reads a direct element constructor from its '<' and returns the
// offset after its end. The tags are tokens; the content is read as
// characters.
func (p *parser) element() (*constructorExpr, int, error) {
	lt, name := p.Next(), p.Next()
	if name.Pos != lt.End {
		return nil, 0, p.Errorf(name.Pos, "expected a name after '<'")
	}
	prefix, local, err := p.qname(name)
	if err != nil {
		return nil, 0, err
	}
	ce := &constructorExpr{prefix: prefix, local: local}
	for {
		t := p.Next()
		switch t.Kind {
		case xpath.TokSlash:
			if gt := p.Peek(); (gt.Kind == xpath.TokGt || gt.Kind == xpath.TokGte) && gt.Pos == t.End {
				return ce, gt.Pos + 1, nil
			}
			return nil, 0, p.unexpected("'>' after '/'")
		case xpath.TokGt, xpath.TokGte: // '>', perhaps before content starting with '='
			end, err := p.content(ce, t.Pos+1)
			return ce, end, err
		case xpath.TokName:
			var a attrTemplate
			if a.prefix, a.local, err = p.qname(t); err != nil {
				return nil, 0, err
			}
			if err := p.expectKind(xpath.TokEq); err != nil {
				return nil, 0, err
			}
			v := p.Peek()
			if v.Kind != xpath.TokString {
				return nil, 0, p.unexpected("a quoted attribute value")
			}
			var quote int
			if a.parts, quote, err = p.template(v.Pos+1, p.src[v.Pos]); err != nil {
				return nil, 0, err
			}
			p.Resume(quote + 1)
			ce.attrs = append(ce.attrs, a)
		default:
			return nil, 0, p.Errorf(t.Pos, "expected an attribute, '>' or '/>' in <%s>, found %s", local, t.Kind)
		}
	}
}

// qname reads the QName whose first name is t: prefixed when ':' and the
// local name follow it without space.
func (p *parser) qname(t xpath.Token) (prefix, local string, err error) {
	if t.Kind != xpath.TokName {
		return "", "", p.Errorf(t.Pos, "expected a name, found %s", t.Kind)
	}
	if c := p.Peek(); c.Kind != xpath.TokColon || c.Pos != t.End {
		return "", t.Text, nil
	}
	p.Next()
	l := p.Next()
	if l.Kind != xpath.TokName || l.Pos != t.End+1 {
		return "", "", p.Errorf(l.Pos, "expected a local name after %s:, found %s", t.Text, l.Kind)
	}
	return t.Text, l.Text, nil
}

// content reads element content from offset i, as characters, through the
// end tag, and returns the offset after it. Text that is only white space
// between tags and enclosed expressions (boundary space) is dropped.
func (p *parser) content(ce *constructorExpr, i int) (int, error) {
	var text strings.Builder
	flush := func() {
		if s := text.String(); strings.TrimSpace(s) != "" {
			ce.content = append(ce.content, constructorContent{text: s})
		}
		text.Reset()
	}
	for {
		rest := p.src[i:]
		switch {
		case rest == "":
			return 0, p.Errorf(i, "unterminated content of <%s>", ce.local)
		case strings.HasPrefix(rest, "</"):
			flush()
			p.Resume(i + 2)
			t := p.Next()
			if t.Pos != i+2 {
				return 0, p.Errorf(t.Pos, "expected a name after '</'")
			}
			prefix, local, err := p.qname(t)
			if err != nil {
				return 0, err
			}
			if prefix != ce.prefix || local != ce.local {
				return 0, p.Errorf(t.Pos, "mismatched end tag </%s:%s> for <%s:%s>", prefix, local, ce.prefix, ce.local)
			}
			if gt := p.Peek(); gt.Kind == xpath.TokGt || gt.Kind == xpath.TokGte {
				return gt.Pos + 1, nil
			}
			return 0, p.unexpected("'>'")
		case strings.HasPrefix(rest, "<!--"):
			end := strings.Index(rest, "-->")
			if end < 0 {
				return 0, p.Errorf(i, "unterminated comment")
			}
			i += end + 3
		case rest[0] == '<':
			flush()
			if err := p.Enter(); err != nil {
				return 0, err
			}
			p.Resume(i)
			child, end, err := p.element()
			p.Leave()
			if err != nil {
				return 0, err
			}
			ce.content = append(ce.content, constructorContent{child: child})
			i = end
		case rest[0] == '{' && !strings.HasPrefix(rest, "{{"):
			flush()
			e, end, err := p.enclosed(i + 1)
			if err != nil {
				return 0, err
			}
			ce.content = append(ce.content, constructorContent{expr: e, fresh: constructs(e)})
			i = end
		default:
			i += literal(&text, rest)
		}
	}
}

// template reads an attribute value from offset i up to its closing quote,
// splitting literal text from enclosed expressions, and returns the offset
// of the quote.
func (p *parser) template(i int, quote byte) ([]part, int, error) {
	var parts []part
	var text strings.Builder
	flush := func() {
		if text.Len() > 0 {
			parts = append(parts, part{text: text.String()})
			text.Reset()
		}
	}
	for {
		rest := p.src[i:]
		switch {
		case rest == "":
			return nil, 0, p.Errorf(i, "unterminated attribute value")
		case rest[0] == quote:
			flush()
			return parts, i, nil
		case rest[0] == '{' && !strings.HasPrefix(rest, "{{"):
			flush()
			e, end, err := p.enclosed(i + 1)
			if err != nil {
				return nil, 0, err
			}
			parts = append(parts, part{expr: e})
			i = end
		default:
			i += literal(&text, rest)
		}
	}
}

// literal writes the character rest starts with to text, or one brace for
// an escaped {{ or }}, and returns the bytes it read.
func literal(text *strings.Builder, rest string) int {
	text.WriteByte(rest[0])
	if strings.HasPrefix(rest, "{{") || strings.HasPrefix(rest, "}}") {
		return 2
	}
	return 1
}

// enclosed reads the expression of an enclosed {…} from offset i and
// returns the offset after its '}'.
func (p *parser) enclosed(i int) (qexpr, int, error) {
	p.Resume(i)
	e, err := p.expr()
	if err != nil {
		return nil, 0, err
	}
	t := p.Peek()
	if t.Kind != xpath.TokRBrace {
		return nil, 0, p.unexpected("'}'")
	}
	return e, t.End, nil
}

// --- free variables ---------------------------------------------------------------

// names is a list of names that a map indexes once the list is long, so
// that the lookups of a large query stay linear.
type names struct {
	list  []string
	index map[string]int // how often list holds each name; nil while short
}

func (n *names) has(name string) bool {
	if n.index != nil {
		return n.index[name] > 0
	}
	return slices.Contains(n.list, name)
}

func (n *names) add(name string) {
	n.list = append(n.list, name)
	switch {
	case n.index != nil:
		n.index[name]++
	case len(n.list) > 8:
		n.index = make(map[string]int, len(n.list))
		for _, m := range n.list {
			n.index[m]++
		}
	}
}

// truncate drops the names after the first k.
func (n *names) truncate(k int) {
	if n.index != nil {
		for _, m := range n.list[k:] {
			n.index[m]--
		}
	}
	n.list = n.list[:k]
}

// operand is x as a query expression. The variables x reads that no
// enclosing for, let or at binds are free in the query.
func (p *parser) operand(x *xpath.Expr) qexpr {
	for _, name := range x.Uses() {
		if !p.bound.has(name) && !p.free.has(name) {
			p.free.add(name)
		}
	}
	return &xpathExpr{x}
}
