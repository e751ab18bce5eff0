package xpath

import (
	"fmt"
	"unicode/utf8"

	"repro/internal/compilecache"
)

// Lang is the compile-cache language label for XPath expressions
// (compile_seconds{language="xpath"}).
const Lang = "xpath"

// SyntaxError is the error Compile returns for malformed expressions. Pos
// is a byte offset into Src; embedding compilers (internal/xq carves XPath
// spans out of XQuery-lite source) translate it into their own coordinate
// space instead of re-parsing the message.
type SyntaxError struct {
	Src string // the expression source handed to Compile
	Pos int    // byte offset into Src where compilation failed
	Msg string // what went wrong
}

// errorContext is how many bytes of the source an error message quotes on
// either side of the failing position, so that the message about a large
// expression (and a rejected rule's 400 body) stays small.
const errorContext = 32

// Error renders the historical message shape, quoting the source around
// Pos.
func (e *SyntaxError) Error() string {
	return fmt.Sprintf("xpath: %q: position %d: %s", excerpt(e.Src, e.Pos), e.Pos, e.Msg)
}

// excerpt is src around pos: all of it when it is short, else about
// errorContext bytes on either side, widened to whole runes (by at most a
// rune's length, however invalid the UTF-8), with "…" where cut.
func excerpt(src string, pos int) string {
	from, to := max(0, pos-errorContext), min(len(src), pos+errorContext)
	for i := 1; i < utf8.UTFMax && from > 0 && !utf8.RuneStart(src[from]); i++ {
		from--
	}
	for i := 1; i < utf8.UTFMax && to < len(src) && !utf8.RuneStart(src[to]); i++ {
		to++
	}
	s := src[from:to]
	if from > 0 {
		s = "…" + s
	}
	if to < len(src) {
		s += "…"
	}
	return s
}

func compileAny(src string) (any, error) {
	e, err := Compile(src)
	if err != nil {
		return nil, err
	}
	return e, nil
}

// CompileCached is Compile memoized through the process-wide compile cache
// (compilecache.Default): the first call for a source string parses it,
// later calls from any goroutine share the same immutable *Expr.
func CompileCached(src string) (*Expr, error) {
	v, err := compilecache.Default.Get(Lang, src, compileAny)
	if err != nil {
		return nil, err
	}
	return v.(*Expr), nil
}
