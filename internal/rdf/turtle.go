package rdf

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"unicode"

	"repro/internal/xmltree"
)

// ParseTurtle reads a Turtle-subset document into a slice of triples.
// Supported syntax: @prefix and @base directives, IRIs in angle brackets,
// prefixed names, the "a" keyword, plain/language-tagged/datatyped string
// literals, integer/decimal/boolean shorthand literals, blank node labels
// (_:x) and anonymous blank nodes ([]), and the ";" / "," abbreviations.
// Anonymous blank nodes nest at most xmltree.MaxDepth deep, the bound every
// reader of the engine shares.
func ParseTurtle(r io.Reader) ([]Triple, error) {
	src, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("rdf: read turtle: %w", err)
	}
	p := &turtleParser{src: string(src), prefixes: map[string]string{}}
	return p.parse()
}

// ParseTurtleString is ParseTurtle over a string.
func ParseTurtleString(s string) ([]Triple, error) {
	return ParseTurtle(strings.NewReader(s))
}

type turtleParser struct {
	src      string
	pos      int
	line     int
	prefixes map[string]string
	base     string
	bnodeSeq int
	depth    int // open '[' blank nodes
	triples  []Triple
}

func (p *turtleParser) errf(format string, args ...any) error {
	return fmt.Errorf("rdf: turtle line %d: %s", p.line+1, fmt.Sprintf(format, args...))
}

func (p *turtleParser) parse() ([]Triple, error) {
	for {
		p.skipWS()
		if p.pos >= len(p.src) {
			return p.triples, nil
		}
		if p.peekWord("@prefix") {
			if err := p.parsePrefix(); err != nil {
				return nil, err
			}
			continue
		}
		if p.peekWord("@base") {
			if err := p.parseBase(); err != nil {
				return nil, err
			}
			continue
		}
		if err := p.parseStatement(); err != nil {
			return nil, err
		}
	}
}

func (p *turtleParser) skipWS() {
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		if c == '#' {
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

func (p *turtleParser) peekWord(w string) bool {
	return strings.HasPrefix(p.src[p.pos:], w)
}

func (p *turtleParser) expect(c byte) error {
	p.skipWS()
	if p.pos >= len(p.src) || p.src[p.pos] != c {
		return p.errf("expected %q", string(c))
	}
	p.pos++
	return nil
}

func (p *turtleParser) parsePrefix() error {
	p.pos += len("@prefix")
	p.skipWS()
	end := strings.IndexByte(p.src[p.pos:], ':')
	if end < 0 {
		return p.errf("@prefix without ':'")
	}
	name := strings.TrimSpace(p.src[p.pos : p.pos+end])
	p.pos += end + 1
	p.skipWS()
	iri, err := p.parseIRIRef()
	if err != nil {
		return err
	}
	p.prefixes[name] = iri
	return p.expect('.')
}

func (p *turtleParser) parseBase() error {
	p.pos += len("@base")
	p.skipWS()
	iri, err := p.parseIRIRef()
	if err != nil {
		return err
	}
	p.base = iri
	return p.expect('.')
}

func (p *turtleParser) parseIRIRef() (string, error) {
	p.skipWS()
	if p.pos >= len(p.src) || p.src[p.pos] != '<' {
		return "", p.errf("expected IRI")
	}
	end := strings.IndexByte(p.src[p.pos:], '>')
	if end < 0 {
		return "", p.errf("unterminated IRI")
	}
	iri := p.src[p.pos+1 : p.pos+end]
	p.pos += end + 1
	if p.base != "" && !strings.Contains(iri, ":") {
		iri = p.base + iri
	}
	return iri, nil
}

// parseStatement parses: subject predicateObjectList '.'
func (p *turtleParser) parseStatement() error {
	subj, err := p.parseTerm(true)
	if err != nil {
		return err
	}
	if err := p.parsePredicateObjectList(subj); err != nil {
		return err
	}
	return p.expect('.')
}

func (p *turtleParser) parsePredicateObjectList(subj Term) error {
	for {
		p.skipWS()
		pred, err := p.parsePredicate()
		if err != nil {
			return err
		}
		for {
			obj, err := p.parseTerm(false)
			if err != nil {
				return err
			}
			p.triples = append(p.triples, Triple{subj, pred, obj})
			p.skipWS()
			if p.pos < len(p.src) && p.src[p.pos] == ',' {
				p.pos++
				continue
			}
			break
		}
		p.skipWS()
		if p.pos < len(p.src) && p.src[p.pos] == ';' {
			p.pos++
			p.skipWS()
			// A ';' may be trailing before '.' or ']'.
			if p.pos < len(p.src) && (p.src[p.pos] == '.' || p.src[p.pos] == ']') {
				return nil
			}
			continue
		}
		return nil
	}
}

func (p *turtleParser) parsePredicate() (Term, error) {
	p.skipWS()
	if p.pos < len(p.src) && p.src[p.pos] == 'a' {
		if p.pos+1 >= len(p.src) || unicode.IsSpace(rune(p.src[p.pos+1])) {
			p.pos++
			return NewIRI(RDFType), nil
		}
	}
	t, err := p.parseTerm(false)
	if err != nil {
		return Term{}, err
	}
	if t.Kind != IRI {
		return Term{}, p.errf("predicate must be an IRI, got %s", t)
	}
	return t, nil
}

// parseTerm parses an IRI, prefixed name, blank node, literal or [].
// subjectPos restricts literals from appearing as subjects.
func (p *turtleParser) parseTerm(subjectPos bool) (Term, error) {
	p.skipWS()
	if p.pos >= len(p.src) {
		return Term{}, p.errf("unexpected end of input")
	}
	c := p.src[p.pos]
	switch {
	case c == '<':
		iri, err := p.parseIRIRef()
		if err != nil {
			return Term{}, err
		}
		return NewIRI(iri), nil
	case c == '"':
		if subjectPos {
			return Term{}, p.errf("literal cannot be a subject")
		}
		return p.parseLiteral()
	case strings.HasPrefix(p.src[p.pos:], "_:"):
		p.pos += 2
		label := p.parseName()
		if label == "" {
			return Term{}, p.errf("blank node without label")
		}
		return NewBlank(label), nil
	case c == '[':
		if p.depth == xmltree.MaxDepth {
			return Term{}, p.errf("blank nodes nest deeper than %d", xmltree.MaxDepth)
		}
		p.depth++
		defer func() { p.depth-- }()
		p.pos++
		p.skipWS()
		p.bnodeSeq++
		b := NewBlank(fmt.Sprintf("anon%d", p.bnodeSeq))
		if p.pos < len(p.src) && p.src[p.pos] == ']' {
			p.pos++
			return b, nil
		}
		if err := p.parsePredicateObjectList(b); err != nil {
			return Term{}, err
		}
		if err := p.expect(']'); err != nil {
			return Term{}, err
		}
		return b, nil
	case c == '+' || c == '-' || (c >= '0' && c <= '9'):
		if subjectPos {
			return Term{}, p.errf("literal cannot be a subject")
		}
		return p.parseNumber()
	default:
		// true / false / prefixed name
		if p.peekWord("true") {
			p.pos += 4
			return NewTypedLiteral("true", XSDNS+"boolean"), nil
		}
		if p.peekWord("false") {
			p.pos += 5
			return NewTypedLiteral("false", XSDNS+"boolean"), nil
		}
		return p.parsePrefixedName()
	}
}

func (p *turtleParser) parseLiteral() (Term, error) {
	// p.src[p.pos] == '"'
	p.pos++
	var b strings.Builder
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		if c == '\\' && p.pos+1 < len(p.src) {
			p.pos++
			switch p.src[p.pos] {
			case 'n':
				b.WriteByte('\n')
			case 't':
				b.WriteByte('\t')
			case 'r':
				b.WriteByte('\r')
			case '"':
				b.WriteByte('"')
			case '\\':
				b.WriteByte('\\')
			default:
				return Term{}, p.errf("unknown escape \\%s", string(p.src[p.pos]))
			}
			p.pos++
			continue
		}
		if c == '"' {
			p.pos++
			// Optional @lang or ^^<datatype>.
			if p.pos < len(p.src) && p.src[p.pos] == '@' {
				p.pos++
				lang := p.parseName()
				return NewLangLiteral(b.String(), lang), nil
			}
			if strings.HasPrefix(p.src[p.pos:], "^^") {
				p.pos += 2
				dt, err := p.parseTerm(false)
				if err != nil {
					return Term{}, err
				}
				if dt.Kind != IRI {
					return Term{}, p.errf("datatype must be an IRI")
				}
				return NewTypedLiteral(b.String(), dt.Value), nil
			}
			return NewLiteral(b.String()), nil
		}
		if c == '\n' {
			return Term{}, p.errf("newline in literal")
		}
		b.WriteByte(c)
		p.pos++
	}
	return Term{}, p.errf("unterminated literal")
}

func (p *turtleParser) parseNumber() (Term, error) {
	start := p.pos
	if p.src[p.pos] == '+' || p.src[p.pos] == '-' {
		p.pos++
	}
	dots := 0
	for p.pos < len(p.src) && (p.src[p.pos] >= '0' && p.src[p.pos] <= '9' || p.src[p.pos] == '.') {
		if p.src[p.pos] == '.' {
			// A '.' followed by non-digit terminates the statement.
			if p.pos+1 >= len(p.src) || p.src[p.pos+1] < '0' || p.src[p.pos+1] > '9' {
				break
			}
			dots++
		}
		p.pos++
	}
	text := p.src[start:p.pos]
	if text == "" || text == "+" || text == "-" {
		return Term{}, p.errf("bad number")
	}
	if dots > 0 {
		return NewTypedLiteral(text, XSDNS+"decimal"), nil
	}
	return NewTypedLiteral(text, XSDNS+"integer"), nil
}

func (p *turtleParser) parsePrefixedName() (Term, error) {
	prefix := p.parseName()
	if p.pos >= len(p.src) || p.src[p.pos] != ':' {
		return Term{}, p.errf("expected a term, found %q", peekSnippet(p.src, p.pos))
	}
	p.pos++
	local := p.parseName()
	ns, ok := p.prefixes[prefix]
	if !ok {
		return Term{}, p.errf("undeclared prefix %.64q", prefix)
	}
	return NewIRI(ns + local), nil
}

func (p *turtleParser) parseName() string {
	start := p.pos
	for p.pos < len(p.src) {
		c := rune(p.src[p.pos])
		if unicode.IsLetter(c) || unicode.IsDigit(c) || c == '_' || c == '-' {
			p.pos++
			continue
		}
		// Allow '.' inside names but not at the end (it ends statements).
		if c == '.' && p.pos+1 < len(p.src) {
			n := rune(p.src[p.pos+1])
			if unicode.IsLetter(n) || unicode.IsDigit(n) || n == '_' {
				p.pos++
				continue
			}
		}
		break
	}
	return p.src[start:p.pos]
}

func peekSnippet(s string, pos int) string {
	end := pos + 12
	if end > len(s) {
		end = len(s)
	}
	return s[pos:end]
}

// WriteTurtle serializes triples as Turtle, one statement per line, using
// the given prefix map (prefix → namespace IRI) for compact names.
func WriteTurtle(w io.Writer, triples []Triple, prefixes map[string]string) error {
	type pfx struct{ name, ns string }
	var pl []pfx
	for n, ns := range prefixes {
		pl = append(pl, pfx{n, ns})
	}
	// Longest namespace first so the most specific prefix wins.
	sort.Slice(pl, func(i, j int) bool { return len(pl[i].ns) > len(pl[j].ns) })
	names := make([]string, 0, len(pl))
	for _, x := range pl {
		names = append(names, x.name)
	}
	sort.Strings(names)
	for _, n := range names {
		if _, err := fmt.Fprintf(w, "@prefix %s: <%s> .\n", n, prefixes[n]); err != nil {
			return err
		}
	}
	term := func(t Term) string {
		if t.Kind == IRI {
			for _, x := range pl {
				if rest, ok := strings.CutPrefix(t.Value, x.ns); ok && validLocal(rest) {
					return x.name + ":" + rest
				}
			}
		}
		return t.String()
	}
	for _, t := range triples {
		if _, err := fmt.Fprintf(w, "%s %s %s .\n", term(t.S), term(t.P), term(t.O)); err != nil {
			return err
		}
	}
	return nil
}

func validLocal(s string) bool {
	if s == "" {
		return false
	}
	for _, r := range s {
		if !unicode.IsLetter(r) && !unicode.IsDigit(r) && r != '_' && r != '-' {
			return false
		}
	}
	return true
}
