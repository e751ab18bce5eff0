package xq

import (
	"errors"
	"fmt"
	"strings"
	"unicode"

	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// qexpr is a node of the XQuery-lite AST.
type qexpr interface {
	eval(ev *evaluator) (Sequence, error)
}

// parser is a character-level recursive-descent parser. Path and operator
// expressions are carved out as maximal XPath spans and compiled with the
// xpath package.
type parser struct {
	src   string
	pos   int
	depth int // nesting levels open; see enter
	// closes memoizes closeAfter: bracket offset → offset past its close.
	closes map[int]int
}

// enter opens one nesting level: an expression, or an element constructor
// directly inside another. A query nested deeper than xmltree.MaxDepth
// levels is refused, which bounds the parser's recursion and every
// recursive walk of the tree it builds. Each successful enter is paired
// with p.depth--.
func (p *parser) enter() error {
	if p.depth == xmltree.MaxDepth {
		return p.errf("expression nested deeper than %d levels", xmltree.MaxDepth)
	}
	p.depth++
	return nil
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("xq: offset %d: %s", p.pos, fmt.Sprintf(format, args...))
}

func (p *parser) skipWS() {
	for p.pos < len(p.src) {
		if strings.HasPrefix(p.src[p.pos:], "(:") {
			// XQuery comment (: … :), non-nested.
			end := strings.Index(p.src[p.pos+2:], ":)")
			if end < 0 {
				p.pos = len(p.src)
				return
			}
			p.pos += 2 + end + 2
			continue
		}
		if unicode.IsSpace(rune(p.src[p.pos])) {
			p.pos++
			continue
		}
		return
	}
}

// peekKeyword reports whether the next token is the given word (followed by
// a non-name character).
func (p *parser) peekKeyword(w string) bool {
	if !strings.HasPrefix(p.src[p.pos:], w) {
		return false
	}
	after := p.pos + len(w)
	if after >= len(p.src) {
		return true
	}
	r := rune(p.src[after])
	return !unicode.IsLetter(r) && !unicode.IsDigit(r) && r != '_' && r != '-'
}

func (p *parser) acceptKeyword(w string) bool {
	p.skipWS()
	if p.peekKeyword(w) {
		p.pos += len(w)
		return true
	}
	return false
}

func (p *parser) expectKeyword(w string) error {
	if !p.acceptKeyword(w) {
		return p.errf("expected %q, found %q", w, snippet(p.src, p.pos))
	}
	return nil
}

func (p *parser) expectByte(c byte) error {
	p.skipWS()
	if p.pos >= len(p.src) || p.src[p.pos] != c {
		return p.errf("expected %q, found %q", string(c), snippet(p.src, p.pos))
	}
	p.pos++
	return nil
}

func snippet(s string, pos int) string {
	if pos >= len(s) {
		return "end of input"
	}
	end := pos + 16
	if end > len(s) {
		end = len(s)
	}
	return s[pos:end]
}

// parseExpr := ExprSingle (',' ExprSingle)*
func (p *parser) parseExpr() (qexpr, error) {
	first, err := p.parseExprSingle()
	if err != nil {
		return nil, err
	}
	items := []qexpr{first}
	for {
		p.skipWS()
		if p.pos < len(p.src) && p.src[p.pos] == ',' {
			p.pos++
			e, err := p.parseExprSingle()
			if err != nil {
				return nil, err
			}
			items = append(items, e)
			continue
		}
		break
	}
	if len(items) == 1 {
		return items[0], nil
	}
	return &seqExpr{items}, nil
}

func (p *parser) parseExprSingle() (qexpr, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer func() { p.depth-- }()
	p.skipWS()
	if p.pos >= len(p.src) {
		return nil, p.errf("expected an expression")
	}
	switch {
	case p.peekKeyword("for") || p.peekKeyword("let"):
		return p.parseFLWOR()
	case p.peekKeyword("if") && p.nextAfterKeywordIs("if", '('):
		return p.parseIf()
	case p.src[p.pos] == '<' && p.pos+1 < len(p.src) && isNameStart(rune(p.src[p.pos+1])):
		return p.parseConstructor()
	case p.src[p.pos] == '(' && p.parenIsSequence():
		return p.parseParenSequence()
	default:
		if name, ok := p.peekXQFunction(); ok {
			return p.parseXQFunction(name)
		}
		return p.parseXPathSpan()
	}
}

func (p *parser) nextAfterKeywordIs(w string, c byte) bool {
	i := p.pos + len(w)
	for i < len(p.src) && unicode.IsSpace(rune(p.src[i])) {
		i++
	}
	return i < len(p.src) && p.src[i] == c
}

// parenIsSequence decides whether a leading '(' opens an xq sequence —
// it is empty, contains a top-level comma, or immediately opens a
// constructor or FLWOR — rather than an XPath group like (1+2)*3.
func (p *parser) parenIsSequence() bool {
	// Check the first significant content after '('.
	j := p.pos + 1
	for j < len(p.src) && unicode.IsSpace(rune(p.src[j])) {
		j++
	}
	if j < len(p.src) {
		if p.src[j] == ')' {
			return true // empty sequence
		}
		if p.src[j] == '<' && j+1 < len(p.src) && isNameStart(rune(p.src[j+1])) {
			return true // constructor inside parens
		}
		rest := p.src[j:]
		for _, w := range []string{"for", "let", "if"} {
			if strings.HasPrefix(rest, w) {
				after := j + len(w)
				if after >= len(p.src) || !isNameChar(rune(p.src[after])) {
					return true
				}
			}
		}
	}
	depth := 0
	i := p.pos
	for i < len(p.src) {
		c := p.src[i]
		switch c {
		case '\'', '"':
			k := strings.IndexByte(p.src[i+1:], c)
			if k < 0 {
				return false
			}
			i += k + 1
		case '(', '[':
			depth++
		case ')', ']':
			depth--
			if depth == 0 {
				return false
			}
		case ',':
			if depth == 1 {
				return true
			}
		}
		i++
	}
	return false
}

func (p *parser) parseParenSequence() (qexpr, error) {
	if err := p.expectByte('('); err != nil {
		return nil, err
	}
	p.skipWS()
	if p.pos < len(p.src) && p.src[p.pos] == ')' {
		p.pos++
		return &seqExpr{}, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectByte(')'); err != nil {
		return nil, err
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

func (p *parser) parseFLWOR() (qexpr, error) {
	f := &flworExpr{}
	for {
		switch {
		case p.acceptKeyword("for"):
			c := forClause{}
			for {
				b, err := p.parseBinding("in")
				if err != nil {
					return nil, err
				}
				c.bindings = append(c.bindings, b)
				p.skipWS()
				if p.pos < len(p.src) && p.src[p.pos] == ',' {
					p.pos++
					continue
				}
				break
			}
			f.clauses = append(f.clauses, c)
			continue
		case p.acceptKeyword("let"):
			c := letClause{}
			for {
				b, err := p.parseBinding(":=")
				if err != nil {
					return nil, err
				}
				c.bindings = append(c.bindings, b)
				p.skipWS()
				if p.pos < len(p.src) && p.src[p.pos] == ',' {
					p.pos++
					continue
				}
				break
			}
			f.clauses = append(f.clauses, c)
			continue
		case p.acceptKeyword("where"):
			cond, err := p.parseExprSingle()
			if err != nil {
				return nil, err
			}
			f.clauses = append(f.clauses, whereClause{cond})
			continue
		case p.acceptKeyword("order"):
			if err := p.expectKeyword("by"); err != nil {
				return nil, err
			}
			oc := orderClause{}
			for {
				key, err := p.parseExprSingle()
				if err != nil {
					return nil, err
				}
				k := orderKey{key: key}
				if p.acceptKeyword("descending") {
					k.desc = true
				} else {
					p.acceptKeyword("ascending")
				}
				oc.keys = append(oc.keys, k)
				p.skipWS()
				if p.pos < len(p.src) && p.src[p.pos] == ',' {
					p.pos++
					continue
				}
				break
			}
			f.clauses = append(f.clauses, oc)
			continue
		case p.acceptKeyword("return"):
			ret, err := p.parseExprSingle()
			if err != nil {
				return nil, err
			}
			f.ret = ret
			return f, nil
		default:
			return nil, p.errf("expected for/let/where/order by/return, found %q", snippet(p.src, p.pos))
		}
	}
}

func (p *parser) parseBinding(sep string) (forBinding, error) {
	p.skipWS()
	if p.pos >= len(p.src) || p.src[p.pos] != '$' {
		return forBinding{}, p.errf("expected $variable, found %q", snippet(p.src, p.pos))
	}
	p.pos++
	name := p.parseName()
	if name == "" {
		return forBinding{}, p.errf("expected a variable name")
	}
	p.skipWS()
	pos := ""
	if sep == ":=" {
		if !strings.HasPrefix(p.src[p.pos:], ":=") {
			return forBinding{}, p.errf("expected := after $%s", name)
		}
		p.pos += 2
	} else {
		if p.acceptKeyword("at") {
			p.skipWS()
			if p.pos >= len(p.src) || p.src[p.pos] != '$' {
				return forBinding{}, p.errf("expected $variable after 'at'")
			}
			p.pos++
			pos = p.parseName()
			if pos == "" {
				return forBinding{}, p.errf("expected a positional variable name")
			}
		}
		if err := p.expectKeyword(sep); err != nil {
			return forBinding{}, err
		}
	}
	src, err := p.parseExprSingle()
	if err != nil {
		return forBinding{}, err
	}
	return forBinding{name: name, pos: pos, src: src}, nil
}

func (p *parser) parseName() string {
	start := p.pos
	for p.pos < len(p.src) {
		r := rune(p.src[p.pos])
		if unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' || r == '-' {
			p.pos++
			continue
		}
		break
	}
	return p.src[start:p.pos]
}

// --- if/then/else ---------------------------------------------------------------

type ifExpr struct{ cond, then, els qexpr }

func (p *parser) parseIf() (qexpr, error) {
	if err := p.expectKeyword("if"); err != nil {
		return nil, err
	}
	if err := p.expectByte('('); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectByte(')'); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("then"); err != nil {
		return nil, err
	}
	then, err := p.parseExprSingle()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("else"); err != nil {
		return nil, err
	}
	els, err := p.parseExprSingle()
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

// peekXQFunction reports whether an xq-level function call starts here AND
// the call is the whole operand — not followed by an operator or path
// continuation. In the latter case the span goes to XPath, whose core
// library handles count()/sum() inside larger expressions; the xq-level
// versions exist for sequence-typed arguments (nested FLWOR, constructors).
func (p *parser) peekXQFunction() (string, bool) {
	i := p.pos
	start := i
	for i < len(p.src) {
		r := rune(p.src[i])
		if unicode.IsLetter(r) || r == '-' {
			i++
			continue
		}
		break
	}
	name := p.src[start:i]
	if !xqFunctions[name] {
		return "", false
	}
	for i < len(p.src) && unicode.IsSpace(rune(p.src[i])) {
		i++
	}
	if i >= len(p.src) || p.src[i] != '(' {
		return "", false
	}
	// Find the matching close paren (skipping strings), then check the
	// follow set.
	if i = p.closeAfter(i); i < 0 {
		return "", false
	}
	for i < len(p.src) && unicode.IsSpace(rune(p.src[i])) {
		i++
	}
	if i >= len(p.src) {
		return name, true
	}
	switch p.src[i] {
	case ',', ')', '}', ']':
		return name, true
	}
	// Stop keywords may follow (return/where/order/…); operators and path
	// continuations must not.
	rest := p.src[i:]
	for _, w := range stopWords {
		if strings.HasPrefix(rest, w) {
			after := i + len(w)
			if after >= len(p.src) || !isNameChar(rune(p.src[after])) {
				return name, true
			}
		}
	}
	return "", false
}

// closeAfter returns the offset just past the bracket that closes the one
// at open, or -1 if none does. Parentheses and square brackets nest alike
// and quoted strings are skipped. A scan reaches every bracket inside open
// in the state a scan from that bracket starts in, so it records their
// closes too: nested calls then cost one scan in all, not one each.
func (p *parser) closeAfter(open int) int {
	if end, ok := p.closes[open]; ok {
		return end
	}
	if p.closes == nil {
		p.closes = map[int]int{}
	}
	var opens []int
scan:
	for i := open; i < len(p.src); i++ {
		switch c := p.src[i]; c {
		case '\'', '"':
			j := strings.IndexByte(p.src[i+1:], c)
			if j < 0 {
				break scan
			}
			i += j + 1
		case '(', '[':
			opens = append(opens, i)
		case ')', ']':
			p.closes[opens[len(opens)-1]] = i + 1
			if opens = opens[:len(opens)-1]; len(opens) == 0 {
				return i + 1
			}
		}
	}
	for _, o := range opens {
		p.closes[o] = -1
	}
	return -1
}

func (p *parser) parseXQFunction(name string) (qexpr, error) {
	p.pos += len(name)
	if err := p.expectByte('('); err != nil {
		return nil, err
	}
	var args []qexpr
	p.skipWS()
	if p.pos < len(p.src) && p.src[p.pos] == ')' {
		p.pos++
		return &xqFuncExpr{name, nil}, nil
	}
	for {
		a, err := p.parseExprSingle()
		if err != nil {
			return nil, err
		}
		args = append(args, a)
		p.skipWS()
		if p.pos < len(p.src) && p.src[p.pos] == ',' {
			p.pos++
			continue
		}
		break
	}
	if err := p.expectByte(')'); err != nil {
		return nil, err
	}
	return &xqFuncExpr{name, args}, nil
}

// --- XPath spans ---------------------------------------------------------------

type xpathExpr struct{ compiled *xpath.Expr }

// stopWords terminate an XPath span when they appear as standalone words at
// nesting depth 0 immediately after the end of an operand.
var stopWords = []string{
	"return", "where", "order", "for", "let", "in", "then", "else",
	"ascending", "descending", "satisfies",
}

// endsOperand reports whether the text ends (ignoring trailing spaces) with
// a character that completes an operand, so that a following keyword is a
// clause keyword rather than an element name in a path step.
func endsOperand(s string) bool {
	i := len(s) - 1
	for i >= 0 && unicode.IsSpace(rune(s[i])) {
		i--
	}
	if i < 0 {
		return false
	}
	switch s[i] {
	case '/', '@', ':', '$', '(', '[', ',', '|', '+', '-', '*', '=', '<', '>', '!':
		return false
	}
	return true
}

func (p *parser) parseXPathSpan() (qexpr, error) {
	start := p.pos
	depth := 0
	i := p.pos
scan:
	for i < len(p.src) {
		c := p.src[i]
		switch c {
		case '\'', '"':
			j := strings.IndexByte(p.src[i+1:], c)
			if j < 0 {
				return nil, p.errf("unterminated string literal")
			}
			i += j + 2
			continue
		case '(', '[':
			depth++
		case ')', ']':
			if depth == 0 {
				break scan
			}
			depth--
		case '{', '}':
			if depth == 0 {
				break scan
			}
		case ',':
			if depth == 0 {
				break scan
			}
		default:
			if depth == 0 && (unicode.IsLetter(rune(c))) && endsOperand(p.src[start:i]) {
				rest := p.src[i:]
				for _, w := range stopWords {
					if strings.HasPrefix(rest, w) {
						after := i + len(w)
						if after >= len(p.src) || !isNameChar(rune(p.src[after])) {
							break scan
						}
					}
				}
				// Skip the whole word so we do not stop inside it.
				for i < len(p.src) && isNameChar(rune(p.src[i])) {
					i++
				}
				continue
			}
		}
		i++
	}
	span := strings.TrimSpace(p.src[start:i])
	if span == "" {
		return nil, p.errf("expected an expression, found %q", snippet(p.src, p.pos))
	}
	compiled, err := xpath.Compile(span)
	if err != nil {
		// The inner compiler reports positions relative to the span; translate
		// them into offsets in the original XQuery-lite source, accounting for
		// the leading whitespace TrimSpace removed.
		var se *xpath.SyntaxError
		if errors.As(err, &se) {
			lead := strings.Index(p.src[start:i], span)
			if lead < 0 {
				lead = 0
			}
			return nil, fmt.Errorf("xq: offset %d: in path expression: %w", start+lead+se.Pos, err)
		}
		return nil, fmt.Errorf("xq: in path expression: %w", err)
	}
	p.pos = i
	return &xpathExpr{compiled}, nil
}

func isNameStart(r rune) bool { return r == '_' || unicode.IsLetter(r) }
func isNameChar(r rune) bool {
	return r == '_' || r == '-' || r == '.' || unicode.IsLetter(r) || unicode.IsDigit(r)
}

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

func (p *parser) parseConstructor() (qexpr, error) {
	ce, err := p.parseConstructorInner()
	if err != nil {
		return nil, err
	}
	return ce, nil
}

func (p *parser) parseConstructorInner() (*constructorExpr, error) {
	if err := p.expectByte('<'); err != nil {
		return nil, err
	}
	prefix, local, err := p.parseQName()
	if err != nil {
		return nil, err
	}
	ce := &constructorExpr{prefix: prefix, local: local}
	// Attributes.
	for {
		p.skipWS()
		if p.pos >= len(p.src) {
			return nil, p.errf("unterminated constructor <%s", local)
		}
		if strings.HasPrefix(p.src[p.pos:], "/>") {
			p.pos += 2
			return ce, nil
		}
		if p.src[p.pos] == '>' {
			p.pos++
			break
		}
		ap, al, err := p.parseQName()
		if err != nil {
			return nil, err
		}
		if err := p.expectByte('='); err != nil {
			return nil, err
		}
		p.skipWS()
		if p.pos >= len(p.src) || (p.src[p.pos] != '"' && p.src[p.pos] != '\'') {
			return nil, p.errf("expected a quoted attribute value")
		}
		quote := p.src[p.pos]
		p.pos++
		parts, err := p.parseTemplateParts(string(quote))
		if err != nil {
			return nil, err
		}
		p.pos++ // closing quote
		ce.attrs = append(ce.attrs, attrTemplate{ap, al, parts})
	}
	// Content.
	var text strings.Builder
	flushText := func(boundaryStrip bool) {
		s := text.String()
		text.Reset()
		if s == "" {
			return
		}
		if boundaryStrip && strings.TrimSpace(s) == "" {
			return
		}
		ce.content = append(ce.content, constructorContent{text: s})
	}
	for {
		if p.pos >= len(p.src) {
			return nil, p.errf("unterminated content of <%s>", local)
		}
		c := p.src[p.pos]
		switch {
		case strings.HasPrefix(p.src[p.pos:], "</"):
			flushText(true)
			p.pos += 2
			cp, cl, err := p.parseQName()
			if err != nil {
				return nil, err
			}
			if cp != prefix || cl != local {
				return nil, p.errf("mismatched end tag </%s:%s> for <%s:%s>", cp, cl, prefix, local)
			}
			if err := p.expectByte('>'); err != nil {
				return nil, err
			}
			return ce, nil
		case c == '<':
			if strings.HasPrefix(p.src[p.pos:], "<!--") {
				end := strings.Index(p.src[p.pos:], "-->")
				if end < 0 {
					return nil, p.errf("unterminated comment")
				}
				p.pos += end + 3
				continue
			}
			flushText(true)
			if err := p.enter(); err != nil {
				return nil, err
			}
			child, err := p.parseConstructorInner()
			p.depth--
			if err != nil {
				return nil, err
			}
			ce.content = append(ce.content, constructorContent{child: child})
		case strings.HasPrefix(p.src[p.pos:], "{{"):
			text.WriteByte('{')
			p.pos += 2
		case strings.HasPrefix(p.src[p.pos:], "}}"):
			text.WriteByte('}')
			p.pos += 2
		case c == '{':
			flushText(true)
			p.pos++
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectByte('}'); err != nil {
				return nil, err
			}
			ce.content = append(ce.content, constructorContent{expr: e, fresh: constructs(e)})
		default:
			text.WriteByte(c)
			p.pos++
		}
	}
}

// parseTemplateParts reads attribute value content up to (not consuming)
// the terminating quote, splitting literal text and {expr} parts.
func (p *parser) parseTemplateParts(quote string) ([]part, error) {
	var parts []part
	var text strings.Builder
	flush := func() {
		if text.Len() > 0 {
			parts = append(parts, part{text: text.String()})
			text.Reset()
		}
	}
	for {
		if p.pos >= len(p.src) {
			return nil, p.errf("unterminated attribute value")
		}
		if strings.HasPrefix(p.src[p.pos:], quote) {
			flush()
			return parts, nil
		}
		switch {
		case strings.HasPrefix(p.src[p.pos:], "{{"):
			text.WriteByte('{')
			p.pos += 2
		case strings.HasPrefix(p.src[p.pos:], "}}"):
			text.WriteByte('}')
			p.pos += 2
		case p.src[p.pos] == '{':
			flush()
			p.pos++
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectByte('}'); err != nil {
				return nil, err
			}
			parts = append(parts, part{expr: e})
		default:
			text.WriteByte(p.src[p.pos])
			p.pos++
		}
	}
}

func (p *parser) parseQName() (prefix, local string, err error) {
	n1 := p.parseName()
	if n1 == "" {
		return "", "", p.errf("expected a name, found %q", snippet(p.src, p.pos))
	}
	if p.pos < len(p.src) && p.src[p.pos] == ':' && p.pos+1 < len(p.src) && isNameStart(rune(p.src[p.pos+1])) {
		p.pos++
		n2 := p.parseName()
		return n1, n2, nil
	}
	return "", n1, nil
}
