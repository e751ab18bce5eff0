// Package xq implements an XQuery-lite interpreter: FLWOR expressions
// (for/let/where/order by/return), direct element constructors with enclosed
// expressions, if/then/else, parenthesized sequences, and full XPath-subset
// path and operator expressions (delegated to internal/xpath), plus doc()
// for addressing named documents. The grammar extends XPath's: the parser
// reads the xpath lexer's token stream and hands each operand to the XPath
// grammar, so one set of token rules and byte offsets serves both.
//
// In the reproduction it stands in for the Saxon XQuery processor the paper
// wraps as a framework-aware query service (Section 4.3): the engine-visible
// contract — "expression + input variable bindings → answers" — is identical.
// Coverage is the pragmatic core of XQuery 1.0; known deviations:
//   - only direct (not computed) constructors;
//   - comments (: … :) do not nest; one may stand at any token boundary;
//   - the sequence functions (distinct-values, string-join, exists, empty,
//     reverse, min, max, avg, count, sum) are xq's own at the head of an
//     expression, unless the grammar continues the call as an operand
//     (count($x) > 2): there, and deeper in an operand, the XPath core
//     library serves the call;
//   - an xq production (FLWOR, if, sequence, constructor) cannot be an
//     operand of an XPath operator or step;
//   - boundary whitespace in constructors is always stripped.
package xq

import (
	"fmt"

	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// Item is one item of an XQuery sequence: *xmltree.Node, string, float64 or
// bool.
type Item = any

// Sequence is an ordered XQuery value.
type Sequence []Item

// Context supplies documents, variables and namespaces for evaluation.
type Context struct {
	// Docs resolves doc('uri') calls. May be nil (doc() then errors).
	Docs func(uri string) (*xmltree.Node, error)
	// Vars are the externally bound variables ($name).
	Vars map[string]Sequence
	// Namespaces maps prefixes usable in path steps and constructor names
	// to namespace URIs.
	Namespaces map[string]string
	// DefaultNS is the namespace unprefixed element name tests match
	// (see xpath.Context.DefaultNS).
	DefaultNS string
	// ContextNode is the initial context node for paths not rooted in a
	// doc() call; may be nil.
	ContextNode *xmltree.Node
}

// Query is a compiled XQuery-lite expression, immutable and safe for
// concurrent evaluation.
type Query struct {
	root qexpr
	src  string
	vars []string
}

// String returns the source text of the query.
func (q *Query) String() string { return q.src }

// Uses lists the variables the query references that no enclosing for,
// let or at binds, each once, in order of first reference: the ones its
// evaluation reads from Context.Vars. The slice is shared: callers must
// not modify it.
func (q *Query) Uses() []string { return q.vars }

// Compile parses an XQuery-lite expression. Its errors are
// *xpath.SyntaxError, positioned in src.
func Compile(src string) (*Query, error) {
	p := &parser{Parser: xpath.NewParser(src), src: src}
	root, err := p.expr()
	if t := p.Peek(); err == nil && t.Kind != xpath.TokEOF {
		err = p.Errorf(t.Pos, "trailing input")
	}
	// A malformed token is the error, rather than what the parser made
	// of the end of input that the lexer reported after it.
	if lexErr := p.Err(); lexErr != nil {
		return nil, lexErr
	}
	if err != nil {
		return nil, err
	}
	return &Query{root: root, src: src, vars: p.free.list}, nil
}

// MustCompile is Compile panicking on error, for static queries.
func MustCompile(src string) *Query {
	q, err := Compile(src)
	if err != nil {
		panic(err)
	}
	return q
}

// Eval evaluates the query and returns the result sequence.
func (q *Query) Eval(ctx *Context) (Sequence, error) {
	st := &evaluation{ctx: ctx, xctx: xpath.Context{
		Node:       ctx.ContextNode,
		Namespaces: ctx.Namespaces,
		DefaultNS:  ctx.DefaultNS,
		Docs:       ctx.Docs,
	}}
	st.root.evaluation = st
	return q.root.eval(&st.root)
}

// EvalString evaluates the query and atomizes the result into one string
// (items joined by a single space), the way functional results are bound to
// rule-level variables when a plain string is wanted.
func (q *Query) EvalString(ctx *Context) (string, error) {
	seq, err := q.Eval(ctx)
	if err != nil {
		return "", err
	}
	return atomizeJoin(seq), nil
}

// ItemString renders one item as a string: the string-value for nodes, the
// XPath rendering for atomics.
func ItemString(it Item) string {
	switch v := it.(type) {
	case *xmltree.Node:
		return v.TextContent()
	case string:
		return v
	case float64:
		return xpath.FormatNumber(v)
	case bool:
		if v {
			return "true"
		}
		return "false"
	default:
		return fmt.Sprintf("%v", it)
	}
}

func atomizeJoin(seq Sequence) string {
	out := ""
	for i, it := range seq {
		if i > 0 {
			out += " "
		}
		out += ItemString(it)
	}
	return out
}
