package xpath

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/xmltree"
)

const carsDoc = `<garage owner="John Doe">
  <car vin="1" year="2003"><model>Golf</model><class>C</class></car>
  <car vin="2" year="2005"><model>Passat</model><class>B</class></car>
  <bike>BMX</bike>
</garage>`

func ctxFor(doc string) *Context {
	return &Context{Node: xmltree.MustParse(doc)}
}

func evalStr(t *testing.T, ctx *Context, expr string) string {
	t.Helper()
	e, err := Compile(expr)
	if err != nil {
		t.Fatalf("compile %q: %v", expr, err)
	}
	s, err := e.EvalString(ctx)
	if err != nil {
		t.Fatalf("eval %q: %v", expr, err)
	}
	return s
}

func evalNum(t *testing.T, ctx *Context, expr string) float64 {
	t.Helper()
	e := MustCompile(expr)
	n, err := e.EvalNumber(ctx)
	if err != nil {
		t.Fatalf("eval %q: %v", expr, err)
	}
	return n
}

func evalBool(t *testing.T, ctx *Context, expr string) bool {
	t.Helper()
	b, err := MustCompile(expr).EvalBool(ctx)
	if err != nil {
		t.Fatalf("eval %q: %v", expr, err)
	}
	return b
}

func evalNodes(t *testing.T, ctx *Context, expr string) NodeSet {
	t.Helper()
	ns, err := MustCompile(expr).EvalNodes(ctx)
	if err != nil {
		t.Fatalf("eval %q: %v", expr, err)
	}
	return ns
}

func TestPathsAndPredicates(t *testing.T) {
	ctx := ctxFor(carsDoc)
	cases := []struct {
		expr string
		want string // concatenated text of result nodes, "|"-separated
	}{
		{`/garage/car/model`, "Golf|Passat"},
		{`//model`, "Golf|Passat"},
		{`/garage/car[1]/model`, "Golf"},
		{`/garage/car[2]/model`, "Passat"},
		{`/garage/car[last()]/model`, "Passat"},
		{`/garage/car[class='B']/model`, "Passat"},
		{`/garage/car[@vin='1']/model`, "Golf"},
		{`/garage/car[@year>2004]/model`, "Passat"},
		{`/garage/*[position()=3]`, "BMX"},
		{`//car[model='Golf']/class`, "C"},
		{`/garage/car/class | /garage/bike`, "C|B|BMX"},
		{`//car[not(class='B')]/model`, "Golf"},
		{`/garage/car[position()<2]/model`, "Golf"},
		{`//text()[normalize-space(.)='BMX']`, "BMX"},
		{`/garage/car[1]/following-sibling::car/model`, "Passat"},
		{`/garage/car[2]/preceding-sibling::car/model`, "Golf"},
		{`//model/parent::car/@vin`, "1|2"},
		{`//class/ancestor::garage/@owner`, "John Doe"},
		{`//model/ancestor-or-self::model`, "Golf|Passat"},
		{`/garage/car/self::car/model`, "Golf|Passat"},
		{`//car/descendant::text()[.='Golf']`, "Golf"},
		{`/descendant-or-self::node()/model`, "Golf|Passat"},
		{`//car/@*`, "1|2003|2|2005"},
	}
	for _, c := range cases {
		ns := evalNodes(t, ctx, c.expr)
		var parts []string
		for _, n := range ns {
			parts = append(parts, strings.TrimSpace(n.TextContent()))
		}
		if got := strings.Join(parts, "|"); got != c.want {
			t.Errorf("%s = %q, want %q", c.expr, got, c.want)
		}
	}
}

func TestParentDeduplication(t *testing.T) {
	// Both cars share one parent; the step must deduplicate.
	ns := evalNodes(t, ctxFor(carsDoc), `//car/..`)
	if len(ns) != 1 || ns[0].Name.Local != "garage" {
		t.Fatalf("//car/.. = %d nodes (%v)", len(ns), ns)
	}
}

func TestRelativePath(t *testing.T) {
	doc := xmltree.MustParse(carsDoc)
	car := doc.Root().ChildElementsNamed("", "car")[0]
	ctx := &Context{Node: car}
	if got := evalStr(t, ctx, `model`); got != "Golf" {
		t.Errorf("relative model = %q", got)
	}
	if got := evalStr(t, ctx, `.//class`); got != "C" {
		t.Errorf(".//class = %q", got)
	}
	if got := evalStr(t, ctx, `../bike`); got != "BMX" {
		t.Errorf("../bike = %q", got)
	}
	if got := evalStr(t, ctx, `@vin`); got != "1" {
		t.Errorf("@vin = %q", got)
	}
}

func TestNamespaceTests(t *testing.T) {
	doc := `<t:trip xmlns:t="http://example.org/travel" xmlns:c="http://example.org/cars">
		<t:booking person="John"/><c:car>Golf</c:car></t:trip>`
	ctx := ctxFor(doc)
	ctx.Namespaces = map[string]string{
		"tr": "http://example.org/travel",
		"ca": "http://example.org/cars",
	}
	if got := evalStr(t, ctx, `/tr:trip/tr:booking/@person`); got != "John" {
		t.Errorf("ns path = %q", got)
	}
	if got := evalStr(t, ctx, `/tr:trip/ca:car`); got != "Golf" {
		t.Errorf("ns path = %q", got)
	}
	if n := evalNodes(t, ctx, `/tr:trip/ca:*`); len(n) != 1 {
		t.Errorf("ns wildcard matched %d", len(n))
	}
	// Unprefixed names must not match namespaced elements (XPath 1.0).
	if n := evalNodes(t, ctx, `/trip`); len(n) != 0 {
		t.Errorf("unprefixed test matched namespaced element")
	}
	// …unless a DefaultNS is configured (our documented extension).
	ctx.DefaultNS = "http://example.org/travel"
	if got := evalStr(t, ctx, `/trip/booking/@person`); got != "John" {
		t.Errorf("DefaultNS path = %q", got)
	}
}

func TestArithmeticAndComparison(t *testing.T) {
	ctx := ctxFor(`<n><a>2</a><b>3</b></n>`)
	cases := []struct {
		expr string
		want float64
	}{
		{`1 + 2 * 3`, 7},
		{`(1 + 2) * 3`, 9},
		{`10 div 4`, 2.5},
		{`10 mod 3`, 1},
		{`-2 + 5`, 3},
		{`- - 3`, 3},
		{`/n/a + /n/b`, 5},
		{`count(//a) + count(//b)`, 2},
		{`sum(/n/*)`, 5},
	}
	for _, c := range cases {
		if got := evalNum(t, ctx, c.expr); got != c.want {
			t.Errorf("%s = %v, want %v", c.expr, got, c.want)
		}
	}
	bools := []struct {
		expr string
		want bool
	}{
		{`1 < 2`, true},
		{`2 <= 2`, true},
		{`3 > 4`, false},
		{`'a' = 'a'`, true},
		{`'a' != 'b'`, true},
		{`1 = '1'`, true},
		{`true() and false()`, false},
		{`true() or false()`, true},
		{`not(false())`, true},
		{`/n/a = 2`, true},
		{`/n/a < /n/b`, true},
		{`/n/* = 3`, true},  // existential: some node equals 3
		{`/n/* != 3`, true}, // existential: some node differs from 3
		{`/n/c = 1`, false}, // empty node-set never equals
		{`boolean(/n/a)`, true},
		{`boolean(/n/zzz)`, false},
		{`/n/a = true()`, true}, // node-set vs boolean via boolean()
	}
	for _, c := range bools {
		if got := evalBool(t, ctx, c.expr); got != c.want {
			t.Errorf("%s = %v, want %v", c.expr, got, c.want)
		}
	}
}

func TestStringFunctions(t *testing.T) {
	ctx := ctxFor(`<x>  hello   world </x>`)
	cases := []struct {
		expr string
		want string
	}{
		{`concat('a', 'b', 'c')`, "abc"},
		{`substring('12345', 2, 3)`, "234"},
		{`substring('12345', 2)`, "2345"},
		{`substring('12345', 1.5, 2.6)`, "234"}, // spec example
		{`substring-before('1999/04/01', '/')`, "1999"},
		{`substring-after('1999/04/01', '/')`, "04/01"},
		{`normalize-space(/x)`, "hello world"},
		{`translate('bar', 'abc', 'ABC')`, "BAr"},
		{`translate('--aaa--', 'abc-', 'ABC')`, "AAA"},
		{`string(1 div 0)`, "Infinity"},
		{`string(0 div 0)`, "NaN"},
		{`string(12)`, "12"},
		{`string(12.5)`, "12.5"},
		{`substring('πθ', 2, 1)`, "θ"},
	}
	for _, c := range cases {
		if got := evalStr(t, ctx, c.expr); got != c.want {
			t.Errorf("%s = %q, want %q", c.expr, got, c.want)
		}
	}
	if l := evalNum(t, ctx, `string-length('πθ')`); l != 2 {
		t.Errorf("string-length = %v", l)
	}
	if !evalBool(t, ctx, `starts-with('database', 'data')`) {
		t.Error("starts-with failed")
	}
	if !evalBool(t, ctx, `contains('database', 'tab')`) {
		t.Error("contains failed")
	}
}

func TestNumberFunctions(t *testing.T) {
	ctx := ctxFor(`<x>3.7</x>`)
	cases := []struct {
		expr string
		want float64
	}{
		{`floor(3.7)`, 3},
		{`ceiling(3.2)`, 4},
		{`round(3.5)`, 4},
		{`round(-3.5)`, -3}, // XPath rounds half towards +inf
		{`number(/x)`, 3.7},
		{`floor(number(/x))`, 3},
	}
	for _, c := range cases {
		if got := evalNum(t, ctx, c.expr); got != c.want {
			t.Errorf("%s = %v, want %v", c.expr, got, c.want)
		}
	}
	if n := evalNum(t, ctx, `number('zzz')`); !math.IsNaN(n) {
		t.Errorf("number('zzz') = %v, want NaN", n)
	}
}

func TestNameFunctions(t *testing.T) {
	ctx := ctxFor(`<a><b x="1"/></a>`)
	if got := evalStr(t, ctx, `local-name(/a/b)`); got != "b" {
		t.Errorf("local-name = %q", got)
	}
	if got := evalStr(t, ctx, `name(/a/b/@x)`); got != "x" {
		t.Errorf("name of attr = %q", got)
	}
	doc := `<p:a xmlns:p="u"><p:b/></p:a>`
	nctx := ctxFor(doc)
	nctx.Namespaces = map[string]string{"q": "u"}
	if got := evalStr(t, nctx, `namespace-uri(/q:a/q:b)`); got != "u" {
		t.Errorf("namespace-uri = %q", got)
	}
	if got := evalStr(t, nctx, `name(/q:a)`); got != "q:a" {
		t.Errorf("name with registered prefix = %q", got)
	}
}

func TestVariables(t *testing.T) {
	ctx := ctxFor(carsDoc)
	ctx.Vars = map[string]Object{
		"Class":   "B",
		"MinYear": 2004.0,
		"Flag":    true,
	}
	if got := evalStr(t, ctx, `//car[class=$Class]/model`); got != "Passat" {
		t.Errorf("var predicate = %q", got)
	}
	if got := evalStr(t, ctx, `//car[@year >= $MinYear]/model`); got != "Passat" {
		t.Errorf("numeric var = %q", got)
	}
	if !evalBool(t, ctx, `$Flag`) {
		t.Error("bool var")
	}
	// Node-set variables participate in paths.
	cars := evalNodes(t, ctx, `//car`)
	ctx.Vars["Cars"] = cars
	if got := evalNum(t, ctx, `count($Cars)`); got != 2 {
		t.Errorf("count($Cars) = %v", got)
	}
	if got := evalStr(t, ctx, `$Cars[2]/model`); got != "Passat" {
		t.Errorf("$Cars[2]/model = %q", got)
	}
	if got := evalStr(t, ctx, `$Cars/model`); got != "Golf" {
		t.Errorf("$Cars/model first = %q", got)
	}
	// Unbound variable is an error.
	if _, err := MustCompile(`$Nope`).Eval(ctx); err == nil {
		t.Error("unbound variable should error")
	}
}

func TestFilterExprWithPath(t *testing.T) {
	ctx := ctxFor(carsDoc)
	if got := evalStr(t, ctx, `(//car)[2]/model`); got != "Passat" {
		t.Errorf("(//car)[2]/model = %q", got)
	}
	if got := evalNum(t, ctx, `count((//car | //bike))`); got != 3 {
		t.Errorf("union count = %v", got)
	}
}

func TestCompileErrors(t *testing.T) {
	bad := []string{
		``,
		`/garage/`,
		`foo(`,
		`[1]`,
		`@`,
		`1 +`,
		`'unterminated`,
		`$`,
		`//car[`,
		`count(1, 2)`, // arity checked at eval, parse ok → see below
		`unknownaxis::x`,
		// XQuery-lite only, for xq's Parser.
		`1 (: c :)`,
		`{1}`,
		`for $x in 1 return $x`,
		`let $x := 1 return $x`,
	}
	for _, src := range bad {
		e, err := Compile(src)
		if err != nil {
			continue
		}
		// Some errors only surface at evaluation.
		if _, err := e.Eval(ctxFor(`<a/>`)); err == nil {
			t.Errorf("Compile(%q) and Eval both succeeded, expected an error", src)
		}
	}
}

func TestEvalErrors(t *testing.T) {
	ctx := ctxFor(`<a/>`)
	bad := []string{
		`count('x')`,
		`sum('x')`,
		`nosuchfn()`,
		`'str'/a`, // path over non-node-set
		`(1)[1]`,  // predicate over non-node-set
		`1 | 2`,   // union of non-node-sets
	}
	for _, src := range bad {
		e, err := Compile(src)
		if err != nil {
			t.Fatalf("Compile(%q): %v", src, err)
		}
		if _, err := e.Eval(ctx); err == nil {
			t.Errorf("Eval(%q) should fail", src)
		}
	}
}

func TestOperatorNamesAsElementNames(t *testing.T) {
	// and/or/div/mod are legal element names in operand position.
	ctx := ctxFor(`<r><and>1</and><or>2</or><div>3</div><mod>4</mod></r>`)
	if got := evalNum(t, ctx, `/r/and + /r/or + /r/div + /r/mod`); got != 10 {
		t.Errorf("operator-named elements sum = %v", got)
	}
}

func TestConcurrentEvaluation(t *testing.T) {
	e := MustCompile(`//car[class='B']/model`)
	ctx1 := ctxFor(carsDoc)
	done := make(chan string, 16)
	for i := 0; i < 16; i++ {
		go func() {
			s, _ := e.EvalString(ctx1)
			done <- s
		}()
	}
	for i := 0; i < 16; i++ {
		if got := <-done; got != "Passat" {
			t.Fatalf("concurrent eval = %q", got)
		}
	}
}

// Property: boolean(not(e)) == !boolean(e) for arbitrary comparison results.
func TestQuickNotInvolution(t *testing.T) {
	ctx := ctxFor(carsDoc)
	f := func(a, b int8) bool {
		lhs := evalBoolQ(ctx, "not("+itoa(int(a))+" < "+itoa(int(b))+")")
		rhs := !evalBoolQ(ctx, itoa(int(a))+" < "+itoa(int(b)))
		return lhs == rhs
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: string(number(x)) round-trips integers.
func TestQuickNumberStringRoundTrip(t *testing.T) {
	ctx := ctxFor(`<a/>`)
	f := func(n int16) bool {
		return evalStrQ(ctx, "string(number('"+itoa(int(n))+"'))") == itoa(int(n))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func itoa(n int) string {
	if n < 0 {
		return "-" + itoa(-n)
	}
	if n < 10 {
		return string(rune('0' + n))
	}
	return itoa(n/10) + string(rune('0'+n%10))
}

func evalBoolQ(ctx *Context, src string) bool {
	b, err := MustCompile(src).EvalBool(ctx)
	if err != nil {
		panic(err)
	}
	return b
}

func evalStrQ(ctx *Context, src string) string {
	s, err := MustCompile(src).EvalString(ctx)
	if err != nil {
		panic(err)
	}
	return s
}

// TestNestingBound: each nesting construct — parentheses, predicates,
// function arguments and negation — nests up to xmltree.MaxDepth levels;
// one more is a compile error, and so is a 2 MB nested expression, which
// used to overflow the parser's stack and kill the process.
func TestNestingBound(t *testing.T) {
	nest := func(open, inner, close string) func(levels int) string {
		return func(levels int) string {
			return strings.Repeat(open, levels) + inner + strings.Repeat(close, levels)
		}
	}
	for _, c := range []struct {
		construct string
		unit      int // bytes per level
		src       func(levels int) string
	}{
		{"parentheses", 2, nest("(", "1", ")")},
		{"predicates", 14, func(levels int) string { return "/garage" + nest("[self::node()", "", "]")(levels) }},
		{"function arguments", 9, nest("boolean(", "1", ")")},
		{"negation", 1, nest("-", "1", "")},
	} {
		t.Run(c.construct, func(t *testing.T) {
			for _, r := range []struct {
				name   string
				levels int
				ok     bool
			}{
				{"at the bound", xmltree.MaxDepth, true},
				{"bound+1", xmltree.MaxDepth + 1, false},
				{"2 MB", 2 << 20 / c.unit, false},
			} {
				t.Run(r.name, func(t *testing.T) {
					start := time.Now()
					e, err := Compile(c.src(r.levels))
					if took := time.Since(start); took > 10*time.Second {
						t.Errorf("Compile took %v", took)
					}
					if !r.ok {
						if err == nil || !strings.Contains(err.Error(), "nested deeper than") {
							t.Fatalf("err = %v, want the nesting bound", err)
						}
						return
					}
					if err != nil {
						t.Fatal(err)
					}
					if ok, err := e.EvalBool(ctxFor(carsDoc)); err != nil || !ok {
						t.Fatalf("Eval = %v, %v; want true", ok, err)
					}
				})
			}
		})
	}
}

// TestStepSemantics pins what the allocation-lean step evaluation must
// keep: deduplication of a start node-set that holds a node twice, the
// per-parent meaning of a positional //x[1] next to the fused walk of
// //x[boolean], and attribute identity across two steps.
func TestStepSemantics(t *testing.T) {
	doc := xmltree.MustParse(`<r><p n="1" m="1"><x>1</x><x>2</x></p><p n="2"><x>3</x><q><x>4</x></q></p></r>`)
	ps := doc.Root().ChildElements()
	ctx := &Context{Node: doc, Vars: map[string]Object{
		"x":   NodeSet{ps[0], ps[0], ps[1]},
		"rev": NodeSet{ps[1], ps[0], ps[1]},
	}}
	for _, c := range []struct {
		expr string
		want string // text of the result nodes, "|"-separated
	}{
		{`$x/x`, "1|2|3"},
		{`$x/@n`, "1|2"},
		{`$rev/x`, "3|1|2"},
		{`$x//x`, "1|2|3|4"},
		{`//x[1]`, "1|3|4"},
		{`(//x)[1]`, "1"},
		{`//x[last()]`, "2|3|4"},
		{`//x[position()=1]`, "1|3|4"},
		{`//x[. > 1]`, "2|3|4"},
		{`//x[. > 1][1]`, "2|3|4"},
		{`//p[@n=2]//x`, "3|4"},
		{`//p[@n=2]/x`, "3"},
		{`//p[2=@n]/@n`, "2"},
		{`//p[@m=true()]/@n`, "1"},
		{`//p[@m!=true()]/@n`, "2"},
		{`//p[@m!='x']/@n`, "1"},
		{`//p[@m=//p/@n]/@n`, "1"},
		{`//p[@n<2]/@n`, "1"},
		{`//p[2>@n]/@n`, "1"},
		{`//p[@n>='2']/@n`, "2"},
		{`//p[@n>=$x/@n]/@n`, "1|2"},
		{`//p[@zz='']/@n`, ""},
		{`//p/@n | //p/@n`, "1|2"},
		{`//p[1]/@n | //p[1]/@*`, "1|1"},
	} {
		ns := evalNodes(t, ctx, c.expr)
		parts := make([]string, len(ns))
		for i, n := range ns {
			parts[i] = n.TextContent()
		}
		if got := strings.Join(parts, "|"); got != c.want {
			t.Errorf("%s = %q, want %q", c.expr, got, c.want)
		}
	}
	if got := evalNum(t, ctx, `count(//p[1]/@n | //p[1]/@n)`); got != 1 {
		t.Errorf("count(@n | @n) = %v, want 1", got)
	}
	// //x[. > 0] is one walk of the tree; the positional //x[1] is each
	// parent's first x. Both, and every other path and union, are in
	// document order, however the parents nest.
	nested := ctxFor(`<r><a><x>1</x></a><x>2</x></r>`)
	if got := evalStr(t, nested, `concat(//x[1], //x[. > 0])`); got != "11" {
		t.Errorf("first of //x[1] and of //x[. > 0] = %q, want %q", got, "11")
	}
	for _, c := range []struct{ expr, want string }{
		{`//x[1]`, "1|2"},
		{`//x[last()]`, "1|2"},
		{`//x/..`, "12|1"},
		{`//x/ancestor::*`, "12|1"},
		{`/r/x | //a/x`, "1|2"},
		{`//x[2=.] | //a | //x[1=.]`, "1|1|2"},
	} {
		ns := evalNodes(t, nested, c.expr)
		parts := make([]string, len(ns))
		for i, n := range ns {
			parts[i] = n.TextContent()
		}
		if got := strings.Join(parts, "|"); got != c.want {
			t.Errorf("%s = %q, want %q", c.expr, got, c.want)
		}
	}
}
