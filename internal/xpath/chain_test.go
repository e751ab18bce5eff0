package xpath

import (
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"repro/internal/xmltree"
)

// TestOperatorChains: a chain of binary operators of one precedence level
// is one node, folded from the left in a loop, so chains do not count
// against the nesting bound and a 4 MB chain — which used to build a tree
// as deep as the chain and overflow the evaluator's stack — compiles and
// evaluates under an 8 MiB stack.
func TestOperatorChains(t *testing.T) {
	defer debug.SetMaxStack(debug.SetMaxStack(8 << 20))
	const fourMB = 4 << 20
	for _, c := range []struct {
		op    string
		unit  int // bytes per operator
		chain func(ops int) string
		want  func(ops int) float64
		huge  bool // also run the 4 MB row
	}{
		{"-", 2, func(n int) string { return "0" + strings.Repeat("-1", n) }, func(n int) float64 { return float64(-n) }, true},
		{"+", 2, func(n int) string { return "1" + strings.Repeat("+1", n) }, func(n int) float64 { return float64(n + 1) }, false},
		{"*", 2, func(n int) string { return "2" + strings.Repeat("*1", n) }, func(int) float64 { return 2 }, false},
		{"or", 5, func(n int) string { return "0" + strings.Repeat(" or 0", n-1) + " or 1" }, func(int) float64 { return 1 }, true},
		{"and", 6, func(n int) string { return "1" + strings.Repeat(" and 1", n) }, func(int) float64 { return 1 }, false},
		{"=", 2, func(n int) string { return "1" + strings.Repeat("=1", n) }, func(int) float64 { return 1 }, false},
		{"|", 6, func(n int) string { return "//car" + strings.Repeat("|//car", n) }, func(int) float64 { return 1 }, false},
	} {
		t.Run(c.op, func(t *testing.T) {
			for _, r := range []struct {
				name string
				ops  int
				run  bool
			}{
				{"at the bound", xmltree.MaxDepth, true},
				{"bound+1", xmltree.MaxDepth + 1, true},
				{"4 MB", fourMB / c.unit, c.huge},
			} {
				if !r.run {
					continue
				}
				t.Run(r.name, func(t *testing.T) {
					start := time.Now()
					e, err := Compile(c.chain(r.ops))
					if err != nil {
						t.Fatal(err)
					}
					var got float64
					if c.op == "|" {
						ns, err := e.EvalNodes(ctxFor(`<garage><car/></garage>`))
						if err != nil {
							t.Fatal(err)
						}
						got = float64(len(ns))
					} else if got, err = e.EvalNumber(ctxFor(carsDoc)); err != nil {
						t.Fatal(err)
					}
					if want := c.want(r.ops); got != want {
						t.Fatalf("= %v, want %v", got, want)
					}
					if took := time.Since(start); took > 10*time.Second {
						t.Errorf("Compile and Eval took %v", took)
					}
				})
			}
		})
	}
}

// TestChainShortCircuit: and and or stop evaluating their operands once
// the value so far decides them, as the binary operators did; the unbound
// variable after the deciding operand is never evaluated.
func TestChainShortCircuit(t *testing.T) {
	for _, c := range []struct {
		src  string
		want bool
	}{
		{"0 and $unbound and 1", false},
		{"1 and 0 and $unbound", false},
		{"1 or $unbound or 0", true},
		{"0 or 1 or $unbound", true},
		{"0 or 0 and $unbound", false},
		{"1 and 1 or $unbound", true},
	} {
		got, err := MustCompile(c.src).EvalBool(ctxFor(carsDoc))
		if err != nil || got != c.want {
			t.Errorf("%s = %v, %v; want %v", c.src, got, err, c.want)
		}
	}
	if _, err := MustCompile("1 and 1 and $unbound").EvalBool(ctxFor(carsDoc)); err == nil {
		t.Error("1 and 1 and $unbound evaluated its unbound operand without error")
	}
}

// TestSyntaxErrorExcerpt: an error quotes at most errorContext bytes on
// either side of its position, so the message about a 4 MB expression is
// small; a short expression is quoted whole, as it always was.
func TestSyntaxErrorExcerpt(t *testing.T) {
	_, err := Compile("1 +")
	if want := `xpath: "1 +": position 3: expected a node test, found end of expression`; err == nil || err.Error() != want {
		t.Errorf("err = %v, want %s", err, want)
	}
	huge := strings.Repeat("(", 4<<20)
	_, err = Compile(huge)
	if err == nil || len(err.Error()) > 512 || !strings.Contains(err.Error(), "nested deeper than") {
		t.Fatalf("err = %.600v (%d bytes), want a short nesting error", err, len(err.Error()))
	}
	_, err = Compile(strings.Repeat("1+", 1<<20) + "é#" + strings.Repeat("+1", 1<<20))
	if err == nil || len(err.Error()) > 512 || !strings.Contains(err.Error(), `"…+1+1`) || !strings.Contains(err.Error(), `é#+1`) {
		t.Fatalf("err = %.600v, want an excerpt around the '#'", err)
	}
}

// figureExpressions are the XPath expressions of the Figs. 4–11 car-rental
// rule and of the test components in the examples and benchmark.
var figureExpressions = []string{
	"//owner[@name=$Person]/car",
	"$c/model/text()",
	"//entry[@model='$OwnCar']/@class",
	"//city[@name='$Dest']/car",
	"string($c/@class)",
	"$c/name/text()",
	"$Dest != 'Nowhere'",
	"$Stock > 0",
	"$V > 100",
}

// FuzzCompile: Compile never panics, runs in time linear in its input, and
// quotes a bounded excerpt of it in any error. A short accepted
// expression is also evaluated, which must not panic either (evaluation
// time is bounded only for short input: nested predicates multiply).
func FuzzCompile(f *testing.F) {
	for _, src := range figureExpressions {
		f.Add(src)
	}
	for _, n := range []int{xmltree.MaxDepth, xmltree.MaxDepth + 1} {
		f.Add("1" + strings.Repeat("+1", n))
		f.Add("1" + strings.Repeat(" and 1", n))
		f.Add(strings.Repeat("(", n) + "1" + strings.Repeat(")", n))
		f.Add(strings.Repeat("-", n) + "1")
	}
	ctx := func() *Context {
		c := ctxFor(`<a x="1"><b>2</b></a>`)
		c.Vars = map[string]Object{"Person": "p", "Dest": "d", "c": NodeSet{c.Node}}
		return c
	}
	f.Fuzz(func(t *testing.T, src string) {
		start := time.Now()
		e, err := Compile(src)
		if took := time.Since(start); took > time.Second+time.Duration(len(src))*time.Microsecond {
			t.Fatalf("Compile of %d bytes took %v", len(src), took)
		}
		if err != nil {
			if len(err.Error()) > 1024 {
				t.Fatalf("error message of %d bytes", len(err.Error()))
			}
			return
		}
		if len(src) <= 64 {
			e.Eval(ctx())
		}
	})
}
