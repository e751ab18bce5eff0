package xq

import (
	"strings"
	"testing"

	"repro/internal/xmltree"
)

// TestOneGrammar pins the queries whose meaning changed when xq began to
// read XPath's token stream instead of carving XPath spans out of the
// text: a comment is allowed at any token boundary, the XPath grammar
// alone decides where an operand ends, and for and let start a FLWOR
// only before a $variable. Each row was rejected before, except the
// unterminated comment, which was accepted.
func TestOneGrammar(t *testing.T) {
	for _, c := range []struct{ src, want string }{
		{`for $x in (1,2) return $x (: c :)`, "1|2"},
		{`1 (: c :) + 2`, "3"},
		{`1(::)`, "1"},
		{`(1)(: c :)`, "1"},
		{`count(doc('cars.xml')//car) (: c :) > 2`, "true"},
		{`exists(doc('cars.xml')//car)(: c :)`, "true"},
		{`for $o in doc('cars.xml')//owner return $o(: c :)/@name`, "John Doe|Jane Roe"},
		// The span carver stopped at the stop word "in" inside @vin, and
		// did not stop at return after a wildcard.
		{`doc('cars.xml')//car/@vin`, ""},
		{`for $x in doc('cars.xml')/* return name($x)`, "owners"},
		// for and let before no $variable are path steps.
		{`for/x`, ""},
		{`let/x`, ""},
		// A sequence argument of an xq-level call in parentheses.
		{`(count((1, 2)))`, "2"},
	} {
		if got := strings.Join(strs(run(t, c.src, nil)), "|"); got != c.want {
			t.Errorf("%s = %q, want %q", c.src, got, c.want)
		}
	}
	for _, src := range []string{`<a/> (: c`, `1 (: c`} {
		if _, err := Compile(src); err == nil || !strings.Contains(err.Error(), "unterminated comment") {
			t.Errorf("Compile(%q) = %v, want an unterminated comment", src, err)
		}
	}
}

// TestQueryVars: Vars lists the variables a query reads that no enclosing
// for, let or at binds, whatever space separates the keyword from the
// variable, and not a $ inside a string literal.
func TestQueryVars(t *testing.T) {
	for _, c := range []struct{ src, want string }{
		{"for\n$n in (1, 2) return $n", ""},
		{"let\t$a := 1 return $a", ""},
		{`concat('$Price', 'x')`, ""},
		{`for $c in doc('cars.xml')//owner[@name=$Person]/car return $c/model/text()`, "Person"},
		{`for $x at $i in $S return ($i, $x, $T)`, "S|T"},
		{`for $x in $x return $x`, "x"},
		{`(for $x in (1) return $x, $x)`, "x"},
		{`let $a := 1, $b := $a + $C return <r n="{$b}">{$D}</r>`, "C|D"},
		{`if ($A) then $B else count($A)`, "A|B"},
		{`(1 + $A) * $B`, "A|B"},
		{`count($A) > $B`, "A|B"},
		{`$Undeclared`, "Undeclared"},
	} {
		if got := strings.Join(MustCompile(c.src).Uses(), "|"); got != c.want {
			t.Errorf("Vars(%q) = %q, want %q", c.src, got, c.want)
		}
	}
}

// TestPathsInDocumentOrder: a for clause iterates a path in document
// order, however the parents of its steps nest.
func TestPathsInDocumentOrder(t *testing.T) {
	ctx := &Context{ContextNode: xmltree.MustParse(`<r><a><x>1</x></a><x>2</x></r>`)}
	seq, err := MustCompile(`for $x in //x[1] return string($x)`).Eval(ctx)
	if got := strings.Join(strs(seq), "|"); err != nil || got != "1|2" {
		t.Errorf("for over //x[1] = %q, %v; want 1|2", got, err)
	}
}
