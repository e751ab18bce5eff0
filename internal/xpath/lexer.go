// Package xpath implements an XPath 1.0 subset over xmltree documents:
// location paths with the major axes, predicates with positional semantics,
// the four XPath value types (node-set, string, number, boolean), variables
// ($x), the core function library, and the arithmetic, comparison and
// boolean operators with XPath's coercion rules.
//
// It is the path-expression engine used by the XQuery-lite interpreter
// (internal/xq), the test component evaluator and the atomic event matcher.
package xpath

import (
	"fmt"
	"strings"
	"unicode"
)

// tokenKind enumerates lexical token classes.
type tokenKind int

const (
	tokEOF  tokenKind = iota
	tokName           // NCName or QName part
	tokNumber
	tokString
	tokVariable // $name
	tokSlash
	tokSlashSlash
	tokLBracket
	tokRBracket
	tokLParen
	tokRParen
	tokAt
	tokDot
	tokDotDot
	tokComma
	tokStar
	tokPipe
	tokPlus
	tokMinus
	tokEq
	tokNeq
	tokLt
	tokLte
	tokGt
	tokGte
	tokColonColon
	tokColon
)

func (k tokenKind) String() string {
	names := map[tokenKind]string{
		tokEOF: "end of expression", tokName: "name", tokNumber: "number",
		tokString: "string", tokVariable: "variable", tokSlash: "/",
		tokSlashSlash: "//", tokLBracket: "[", tokRBracket: "]",
		tokLParen: "(", tokRParen: ")", tokAt: "@", tokDot: ".",
		tokDotDot: "..", tokComma: ",", tokStar: "*", tokPipe: "|",
		tokPlus: "+", tokMinus: "-", tokEq: "=", tokNeq: "!=",
		tokLt: "<", tokLte: "<=", tokGt: ">", tokGte: ">=",
		tokColonColon: "::", tokColon: ":",
	}
	if s, ok := names[k]; ok {
		return s
	}
	return fmt.Sprintf("token(%d)", int(k))
}

type token struct {
	kind tokenKind
	text string
	pos  int
}

// lexer tokenizes an XPath expression one token at a time, on the
// parser's demand. Disambiguation of '*' (multiply vs wildcard) and of the
// operator names and/or/div/mod is grammar-directed: the parser interprets
// them by syntactic position.
type lexer struct {
	src string
	pos int
}

func (l *lexer) next() (token, error) {
	for l.pos < len(l.src) && unicode.IsSpace(rune(l.src[l.pos])) {
		l.pos++
	}
	start := l.pos
	if l.pos >= len(l.src) {
		return token{tokEOF, "", start}, nil
	}
	c := l.src[l.pos]
	two := ""
	if l.pos+1 < len(l.src) {
		two = l.src[l.pos : l.pos+2]
	}
	switch {
	case two == "//":
		l.pos += 2
		return token{tokSlashSlash, "//", start}, nil
	case two == "..":
		l.pos += 2
		return token{tokDotDot, "..", start}, nil
	case two == "::":
		l.pos += 2
		return token{tokColonColon, "::", start}, nil
	case two == "!=":
		l.pos += 2
		return token{tokNeq, "!=", start}, nil
	case two == "<=":
		l.pos += 2
		return token{tokLte, "<=", start}, nil
	case two == ">=":
		l.pos += 2
		return token{tokGte, ">=", start}, nil
	}
	switch c {
	case '/':
		l.pos++
		return token{tokSlash, "/", start}, nil
	case '[':
		l.pos++
		return token{tokLBracket, "[", start}, nil
	case ']':
		l.pos++
		return token{tokRBracket, "]", start}, nil
	case '(':
		l.pos++
		return token{tokLParen, "(", start}, nil
	case ')':
		l.pos++
		return token{tokRParen, ")", start}, nil
	case '@':
		l.pos++
		return token{tokAt, "@", start}, nil
	case ',':
		l.pos++
		return token{tokComma, ",", start}, nil
	case '|':
		l.pos++
		return token{tokPipe, "|", start}, nil
	case '+':
		l.pos++
		return token{tokPlus, "+", start}, nil
	case '-':
		l.pos++
		return token{tokMinus, "-", start}, nil
	case '=':
		l.pos++
		return token{tokEq, "=", start}, nil
	case '<':
		l.pos++
		return token{tokLt, "<", start}, nil
	case '>':
		l.pos++
		return token{tokGt, ">", start}, nil
	case '*':
		l.pos++
		return token{tokStar, "*", start}, nil
	case ':':
		l.pos++
		return token{tokColon, ":", start}, nil
	case '$':
		l.pos++
		name := l.ncName()
		if name == "" {
			return token{}, &SyntaxError{Src: l.src, Pos: start, Msg: "'$' not followed by a name"}
		}
		return token{tokVariable, name, start}, nil
	case '"', '\'':
		quote := c
		l.pos++
		end := strings.IndexByte(l.src[l.pos:], quote)
		if end < 0 {
			return token{}, &SyntaxError{Src: l.src, Pos: start, Msg: "unterminated string literal"}
		}
		s := l.src[l.pos : l.pos+end]
		l.pos += end + 1
		return token{tokString, s, start}, nil
	case '.':
		if l.pos+1 < len(l.src) && isDigit(l.src[l.pos+1]) {
			return l.number(start)
		}
		l.pos++
		return token{tokDot, ".", start}, nil
	}
	if isDigit(c) {
		return l.number(start)
	}
	if isNameStart(rune(c)) {
		name := l.ncName()
		return token{tokName, name, start}, nil
	}
	return token{}, &SyntaxError{Src: l.src, Pos: start, Msg: fmt.Sprintf("unexpected character %q", string(c))}
}

func (l *lexer) number(start int) (token, error) {
	for l.pos < len(l.src) && (isDigit(l.src[l.pos]) || l.src[l.pos] == '.') {
		l.pos++
	}
	return token{tokNumber, l.src[start:l.pos], start}, nil
}

func (l *lexer) ncName() string {
	start := l.pos
	if l.pos >= len(l.src) || !isNameStart(rune(l.src[l.pos])) {
		return ""
	}
	l.pos++
	for l.pos < len(l.src) && isNameChar(rune(l.src[l.pos])) {
		l.pos++
	}
	return l.src[start:l.pos]
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isNameStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func isNameChar(r rune) bool {
	return r == '_' || r == '-' || r == '.' || unicode.IsLetter(r) || unicode.IsDigit(r)
}
