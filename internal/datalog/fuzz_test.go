package datalog

import (
	"strings"
	"testing"
	"time"

	"repro/internal/xmltree"
)

// FuzzParseQuery: ParseQuery never panics and runs in time linear in its
// input, and a goal nested deeper than xmltree.MaxDepth is rejected (goal
// terms do not nest at all). The seeds are the goals of the examples and
// tests and the nesting and operator-chain inputs a rule's query may
// carry, at and past the bound.
func FuzzParseQuery(f *testing.F) {
	for _, q := range []string{
		"supplier(Item, Supplier)",
		"owns(Person, Car)",
		"?- likes(X, X).",
		`class("VW Passat", C)`,
		"flag()",
	} {
		f.Add(q)
	}
	for _, n := range []int{xmltree.MaxDepth, xmltree.MaxDepth + 1} {
		f.Add(strings.Repeat("(", n) + "p(X)" + strings.Repeat(")", n))
		f.Add("p(" + strings.Repeat("(", n) + "X" + strings.Repeat(")", n) + ")")
		f.Add("p(X" + strings.Repeat(", X", n) + ")")
		f.Add("1" + strings.Repeat("+1", n))
	}
	f.Fuzz(func(t *testing.T, src string) {
		start := time.Now()
		ParseQuery(src)
		if took := time.Since(start); took > time.Second+time.Duration(len(src))*time.Microsecond {
			t.Fatalf("ParseQuery of %d bytes took %v", len(src), took)
		}
		deep := strings.Repeat("(", xmltree.MaxDepth+1) + src + strings.Repeat(")", xmltree.MaxDepth+1)
		if _, err := ParseQuery(deep); err == nil {
			t.Fatalf("goal nested %d levels deep accepted", xmltree.MaxDepth+1)
		}
		inner := "p(" + strings.Repeat("(", xmltree.MaxDepth+1) + src + strings.Repeat(")", xmltree.MaxDepth+1) + ")"
		if _, err := ParseQuery(inner); err == nil {
			t.Fatalf("argument nested %d levels deep accepted", xmltree.MaxDepth+1)
		}
	})
}
