package datalog

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"

	"repro/internal/bindings"
)

// Parse reads a Datalog program. Syntax:
//
//	parent(john, mary).                 % fact
//	ancestor(X, Y) :- parent(X, Y).    % rule
//	ancestor(X, Z) :- parent(X, Y), ancestor(Y, Z).
//	adult(X) :- person(X, Age), Age >= 18.
//	orphan(X) :- person(X, _A), not parent(_P, X).  % stratified negation
//
// Identifiers starting with an upper-case letter or '_' are variables;
// lower-case identifiers, numbers and double-quoted strings are constants.
// '%' starts a comment to end of line.
func Parse(src string) (*Program, error) {
	p := &dlParser{src: src}
	prog := &Program{}
	for {
		p.skipWS()
		if p.pos >= len(p.src) {
			break
		}
		r, err := p.parseRule()
		if err != nil {
			return nil, err
		}
		prog.Rules = append(prog.Rules, r)
	}
	return prog, nil
}

// MustParse parses a static program, panicking on error.
func MustParse(src string) *Program {
	p, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return p
}

// ParseQuery parses a single goal atom such as "ancestor(X, mary)"
// (an optional leading "?-" and trailing "." are accepted).
func ParseQuery(src string) (Atom, error) {
	src = strings.TrimSpace(src)
	src = strings.TrimPrefix(src, "?-")
	src = strings.TrimSuffix(strings.TrimSpace(src), ".")
	p := &dlParser{src: src}
	a, err := p.parseAtom()
	if err != nil {
		return Atom{}, err
	}
	p.skipWS()
	if p.pos < len(p.src) {
		return Atom{}, fmt.Errorf("datalog: trailing input after query atom: %q", peekAt(p.src, p.pos))
	}
	return a, nil
}

type dlParser struct {
	src  string
	pos  int
	line int
}

func (p *dlParser) errf(format string, args ...any) error {
	return fmt.Errorf("datalog: line %d: %s", p.line+1, fmt.Sprintf(format, args...))
}

func (p *dlParser) skipWS() {
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		if c == '%' {
			for p.pos < len(p.src) && p.src[p.pos] != '\n' {
				p.pos++
			}
			continue
		}
		if c == '\n' {
			p.line++
			p.pos++
			continue
		}
		if unicode.IsSpace(rune(c)) {
			p.pos++
			continue
		}
		return
	}
}

func (p *dlParser) parseRule() (Rule, error) {
	head, err := p.parseAtom()
	if err != nil {
		return Rule{}, err
	}
	p.skipWS()
	if strings.HasPrefix(p.src[p.pos:], ":-") {
		p.pos += 2
		var body []Literal
		for {
			l, err := p.parseLiteral()
			if err != nil {
				return Rule{}, err
			}
			body = append(body, l)
			p.skipWS()
			if p.pos < len(p.src) && p.src[p.pos] == ',' {
				p.pos++
				continue
			}
			break
		}
		if err := p.expect('.'); err != nil {
			return Rule{}, err
		}
		return Rule{head, body}, nil
	}
	if err := p.expect('.'); err != nil {
		return Rule{}, err
	}
	return Rule{Head: head}, nil
}

func (p *dlParser) expect(c byte) error {
	p.skipWS()
	if p.pos >= len(p.src) || p.src[p.pos] != c {
		return p.errf("expected %q, found %q", string(c), peekAt(p.src, p.pos))
	}
	p.pos++
	return nil
}

func (p *dlParser) parseLiteral() (Literal, error) {
	p.skipWS()
	if strings.HasPrefix(p.src[p.pos:], "not") {
		after := p.pos + 3
		if after < len(p.src) && unicode.IsSpace(rune(p.src[after])) {
			p.pos = after
			a, err := p.parseAtom()
			if err != nil {
				return Literal{}, err
			}
			return Literal{Atom: a, Negated: true}, nil
		}
	}
	if p.pos < len(p.src) && p.src[p.pos] == '!' && !strings.HasPrefix(p.src[p.pos:], "!=") {
		p.pos++
		a, err := p.parseAtom()
		if err != nil {
			return Literal{}, err
		}
		return Literal{Atom: a, Negated: true}, nil
	}
	// Either a regular atom or a comparison "term op term".
	save := p.pos
	t, err := p.parseTerm()
	if err == nil {
		p.skipWS()
		for _, op := range []string{"!=", "<=", ">=", "=", "<", ">"} {
			if strings.HasPrefix(p.src[p.pos:], op) {
				p.pos += len(op)
				u, err := p.parseTerm()
				if err != nil {
					return Literal{}, err
				}
				return Literal{Atom: Atom{Args: []Term{t, u}}, Cmp: op}, nil
			}
		}
	}
	p.pos = save
	a, err := p.parseAtom()
	if err != nil {
		return Literal{}, err
	}
	return Literal{Atom: a}, nil
}

func (p *dlParser) parseAtom() (Atom, error) {
	p.skipWS()
	name := p.parseIdent()
	if name == "" {
		return Atom{}, p.errf("expected a predicate name, found %q", peekAt(p.src, p.pos))
	}
	if r := rune(name[0]); unicode.IsUpper(r) || r == '_' {
		return Atom{}, p.errf("predicate name %q must not start with an upper-case letter", peekAt(name, 0))
	}
	if err := p.expect('('); err != nil {
		return Atom{}, err
	}
	var args []Term
	p.skipWS()
	if p.pos < len(p.src) && p.src[p.pos] == ')' {
		p.pos++
		return Atom{name, nil}, nil
	}
	for {
		t, err := p.parseTerm()
		if err != nil {
			return Atom{}, err
		}
		args = append(args, t)
		p.skipWS()
		if p.pos < len(p.src) && p.src[p.pos] == ',' {
			p.pos++
			continue
		}
		break
	}
	if err := p.expect(')'); err != nil {
		return Atom{}, err
	}
	return Atom{name, args}, nil
}

func (p *dlParser) parseTerm() (Term, error) {
	p.skipWS()
	if p.pos >= len(p.src) {
		return Term{}, p.errf("expected a term")
	}
	c := p.src[p.pos]
	switch {
	case c == '"':
		p.pos++
		var b strings.Builder
		for p.pos < len(p.src) {
			if p.src[p.pos] == '\\' && p.pos+1 < len(p.src) {
				p.pos++
				switch p.src[p.pos] {
				case 'n':
					b.WriteByte('\n')
				case 't':
					b.WriteByte('\t')
				default:
					b.WriteByte(p.src[p.pos])
				}
				p.pos++
				continue
			}
			if p.src[p.pos] == '"' {
				p.pos++
				return S(b.String()), nil
			}
			b.WriteByte(p.src[p.pos])
			p.pos++
		}
		return Term{}, p.errf("unterminated string")
	case c == '-' || (c >= '0' && c <= '9'):
		start := p.pos
		if c == '-' {
			p.pos++
		}
		for p.pos < len(p.src) && (p.src[p.pos] >= '0' && p.src[p.pos] <= '9' || p.src[p.pos] == '.') {
			if p.src[p.pos] == '.' {
				if p.pos+1 >= len(p.src) || p.src[p.pos+1] < '0' || p.src[p.pos+1] > '9' {
					break
				}
			}
			p.pos++
		}
		f, err := strconv.ParseFloat(p.src[start:p.pos], 64)
		if err != nil {
			return Term{}, p.errf("bad number %q", peekAt(p.src[:p.pos], start))
		}
		return N(f), nil
	default:
		name := p.parseIdent()
		if name == "" {
			return Term{}, p.errf("expected a term, found %q", peekAt(p.src, p.pos))
		}
		if r := rune(name[0]); unicode.IsUpper(r) || r == '_' {
			return V(name), nil
		}
		return S(name), nil
	}
}

func (p *dlParser) parseIdent() string {
	start := p.pos
	for p.pos < len(p.src) {
		r := rune(p.src[p.pos])
		if unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' {
			p.pos++
			continue
		}
		break
	}
	return p.src[start:p.pos]
}

// peekAt is what an error quotes of s at pos: at most 10 bytes.
func peekAt(s string, pos int) string {
	end := pos + 10
	if end > len(s) {
		end = len(s)
	}
	if pos >= len(s) {
		return "end of input"
	}
	return s[pos:end]
}

// FactsFromRelation converts a relation into ground facts of the given
// predicate, one argument per listed variable — how the service wrapper
// feeds the incoming ECA variable bindings into a Datalog program.
func FactsFromRelation(pred string, vars []string, rel *bindings.Relation) []Rule {
	var out []Rule
	for _, t := range rel.Tuples() {
		args := make([]Term, 0, len(vars))
		ok := true
		for _, v := range vars {
			val, bound := t[v]
			if !bound {
				ok = false
				break
			}
			args = append(args, C(val))
		}
		if ok {
			out = append(out, Rule{Head: Atom{pred, args}})
		}
	}
	return out
}
