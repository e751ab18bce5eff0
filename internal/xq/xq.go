// Package xq implements an XQuery-lite interpreter: FLWOR expressions
// (for/let/where/order by/return), direct element constructors with enclosed
// expressions, if/then/else, parenthesized sequences, and full XPath-subset
// path and operator expressions (delegated to internal/xpath), plus doc()
// for addressing named documents.
//
// In the reproduction it stands in for the Saxon XQuery processor the paper
// wraps as a framework-aware query service (Section 4.3): the engine-visible
// contract — "expression + input variable bindings → answers" — is identical.
// Coverage is the pragmatic core of XQuery 1.0; known deviations:
//   - only direct (not computed) constructors;
//   - xq-level functions (distinct-values, string-join, exists, empty) are
//     recognized at expression head position, not deep inside path steps;
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
}

// String returns the source text of the query.
func (q *Query) String() string { return q.src }

// Compile parses an XQuery-lite expression.
func Compile(src string) (*Query, error) {
	p := &parser{src: src}
	root, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	p.skipWS()
	if p.pos < len(p.src) {
		return nil, fmt.Errorf("xq: trailing input at offset %d: %q", p.pos, snippet(src, p.pos))
	}
	return &Query{root: root, src: src}, nil
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
