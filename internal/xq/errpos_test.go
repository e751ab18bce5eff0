package xq

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/xpath"
)

// TestNestedXPathErrorPosition: an error in an XPath operand reports its
// offset in the XQuery-lite source, which is the one source the lexer
// reads, and unwraps to *xpath.SyntaxError.
func TestNestedXPathErrorPosition(t *testing.T) {
	cases := []struct {
		src    string
		marker string // the character the inner compiler trips over
	}{
		// Error inside the `in` clause path expression.
		{`for $c in doc('cars.xml')//car[@] return $c`, "]"},
		// Error in a later clause: the operand starts mid-source.
		{`for $c in doc('cars.xml')//car where $c/model[@ = 'VW Golf' return $c`, "="},
	}
	for _, tc := range cases {
		_, err := Compile(tc.src)
		if err == nil {
			t.Fatalf("Compile(%q) succeeded, want error", tc.src)
		}
		wantPos := strings.Index(tc.src, tc.marker)
		want := fmt.Sprintf("offset %d:", wantPos)
		if !strings.Contains(err.Error(), want) {
			t.Errorf("Compile(%q):\n  error %q\n  wants absolute %q (the %q at byte %d)",
				tc.src, err, want, tc.marker, wantPos)
		}
		var se *xpath.SyntaxError
		if !errors.As(err, &se) {
			t.Fatalf("Compile(%q): error %q does not unwrap to *xpath.SyntaxError", tc.src, err)
		}
		// Pos indexes se.Src.
		if se.Pos < 0 || se.Pos > len(se.Src) {
			t.Errorf("span-relative Pos %d outside span %q", se.Pos, se.Src)
		}
		if !strings.Contains(tc.src, se.Src) {
			t.Errorf("span %q is not a slice of the source %q", se.Src, tc.src)
		}
	}
}
