// Package xpath implements an XPath 1.0 subset over xmltree documents:
// location paths with the major axes, predicates with positional semantics,
// the four XPath value types (node-set, string, number, boolean), variables
// ($x), the core function library, and the arithmetic, comparison and
// boolean operators with XPath's coercion rules.
//
// It is the path-expression engine used by the XQuery-lite interpreter
// (internal/xq), the test component evaluator and the atomic event matcher.
// The XQuery-lite grammar extends this one: it reads the same token stream
// through a Parser and hands every operand to the grammar here.
package xpath

import (
	"fmt"
	"strings"
	"unicode"
)

// TokenKind enumerates lexical token classes. The exported kinds are those
// the XQuery-lite grammar reads itself.
type TokenKind int

const (
	TokEOF  TokenKind = iota
	TokName           // NCName or QName part
	tokNumber
	TokString
	TokVariable // $name
	TokSlash
	tokSlashSlash
	tokLBracket
	tokRBracket
	TokLParen
	TokRParen
	tokAt
	tokDot
	tokDotDot
	TokComma
	tokStar
	tokPipe
	tokPlus
	tokMinus
	TokEq
	tokNeq
	TokLt
	tokLte
	TokGt
	TokGte
	tokColonColon
	TokColon
	TokRBrace // '}', in query mode only
	TokAssign // ":=", in query mode only
)

func (k TokenKind) String() string {
	names := map[TokenKind]string{
		TokEOF: "end of expression", TokName: "name", tokNumber: "number",
		TokString: "string", TokVariable: "variable", TokSlash: "/",
		tokSlashSlash: "//", tokLBracket: "[", tokRBracket: "]",
		TokLParen: "(", TokRParen: ")", tokAt: "@", tokDot: ".",
		tokDotDot: "..", TokComma: ",", tokStar: "*", tokPipe: "|",
		tokPlus: "+", tokMinus: "-", TokEq: "=", tokNeq: "!=",
		TokLt: "<", tokLte: "<=", TokGt: ">", TokGte: ">=",
		tokColonColon: "::", TokColon: ":", TokRBrace: "}", TokAssign: ":=",
	}
	if s, ok := names[k]; ok {
		return s
	}
	return fmt.Sprintf("token(%d)", int(k))
}

// Token is one lexical token: its kind, its text (a name, a variable's
// name without the '$', a literal's value, a symbol's spelling) and the
// byte offsets of its first byte and of the byte after it.
type Token struct {
	Kind     TokenKind
	Text     string
	Pos, End int
}

// lexer tokenizes an expression one token at a time, on the parser's
// demand. Disambiguation of '*' (multiply vs wildcard) and of the operator
// names and/or/div/mod is grammar-directed: the parser interprets them by
// syntactic position. In query (XQuery) mode a (: comment :) is space, and
// '}' and ":=" are tokens.
type lexer struct {
	src   string
	pos   int
	query bool
}

func (l *lexer) errAt(pos int, msg string) error {
	return &SyntaxError{Src: l.src, Pos: pos, Msg: msg, query: l.query}
}

// skipSpace skips white space and, in query mode, comments.
func (l *lexer) skipSpace() error {
	for {
		for l.pos < len(l.src) && class[l.src[l.pos]]&space != 0 {
			l.pos++
		}
		if !l.query || !strings.HasPrefix(l.src[l.pos:], "(:") {
			return nil
		}
		end := strings.Index(l.src[l.pos+2:], ":)")
		if end < 0 {
			return l.errAt(l.pos, "unterminated comment")
		}
		l.pos += 2 + end + 2
	}
}

// token makes *t the token of kind k from start to the lexer's position.
func (l *lexer) token(t *Token, k TokenKind, start int) error {
	*t = Token{k, l.src[start:l.pos], start, l.pos}
	return nil
}

// symbol consumes the n-byte symbol token of kind k into *t.
func (l *lexer) symbol(t *Token, k TokenKind, n int) error {
	l.pos += n
	return l.token(t, k, l.pos-n)
}

// punctuation holds the kinds of the one-byte symbol tokens.
var punctuation = [128]TokenKind{
	'/': TokSlash, '[': tokLBracket, ']': tokRBracket, '(': TokLParen, ')': TokRParen,
	'@': tokAt, '.': tokDot, ',': TokComma, '*': tokStar, '|': tokPipe, '+': tokPlus,
	'-': tokMinus, '=': TokEq, '<': TokLt, '>': TokGt, ':': TokColon, '}': TokRBrace,
}

// next lexes the next token into *t.
func (l *lexer) next(t *Token) error {
	if err := l.skipSpace(); err != nil {
		return err
	}
	start := l.pos
	if l.pos >= len(l.src) {
		return l.token(t, TokEOF, start)
	}
	switch l.src[l.pos:min(l.pos+2, len(l.src))] {
	case "//":
		return l.symbol(t, tokSlashSlash, 2)
	case "..":
		return l.symbol(t, tokDotDot, 2)
	case "::":
		return l.symbol(t, tokColonColon, 2)
	case "!=":
		return l.symbol(t, tokNeq, 2)
	case "<=":
		return l.symbol(t, tokLte, 2)
	case ">=":
		return l.symbol(t, TokGte, 2)
	case ":=":
		if l.query {
			return l.symbol(t, TokAssign, 2)
		}
	}
	switch c := l.src[l.pos]; {
	case isDigit(c) || c == '.' && l.pos+1 < len(l.src) && isDigit(l.src[l.pos+1]):
		for l.pos < len(l.src) && (isDigit(l.src[l.pos]) || l.src[l.pos] == '.') {
			l.pos++
		}
		return l.token(t, tokNumber, start)
	case c < 128 && punctuation[c] != 0 && (c != '}' || l.query):
		return l.symbol(t, punctuation[c], 1)
	case c == '$':
		l.pos++
		if l.ncName() == "" {
			return l.errAt(start, "'$' not followed by a name")
		}
		*t = Token{TokVariable, l.src[start+1 : l.pos], start, l.pos}
		return nil
	case c == '"' || c == '\'':
		end := strings.IndexByte(l.src[l.pos+1:], c)
		if end < 0 {
			return l.errAt(start, "unterminated string literal")
		}
		l.pos += end + 2
		*t = Token{TokString, l.src[start+1 : l.pos-1], start, l.pos}
		return nil
	case class[c]&nameStart != 0:
		l.ncName()
		return l.token(t, TokName, start)
	default:
		return l.errAt(start, fmt.Sprintf("unexpected character %q", string(c)))
	}
}

func (l *lexer) ncName() string {
	start := l.pos
	if l.pos >= len(l.src) || class[l.src[l.pos]]&nameStart == 0 {
		return ""
	}
	l.pos++
	for l.pos < len(l.src) && class[l.src[l.pos]]&nameChar != 0 {
		l.pos++
	}
	return l.src[start:l.pos]
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// class holds, for each byte, which of space, nameStart and nameChar it
// is. The lexer reads a byte as the rune of its value.
var class [256]uint8

const (
	space = 1 << iota
	nameStart
	nameChar
)

func init() {
	for b := range class {
		r := rune(b)
		if unicode.IsSpace(r) {
			class[b] |= space
		}
		if r == '_' || unicode.IsLetter(r) {
			class[b] |= nameStart | nameChar
		}
		if r == '-' || r == '.' || unicode.IsDigit(r) {
			class[b] |= nameChar
		}
	}
}
