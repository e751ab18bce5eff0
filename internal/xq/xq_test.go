package xq

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/xmltree"
)

// carsXML is the "own cars" document of the paper's running example.
const carsXML = `<owners>
  <owner name="John Doe">
    <car><model>VW Golf</model><year>2003</year></car>
    <car><model>VW Passat</model><year>2005</year></car>
  </owner>
  <owner name="Jane Roe">
    <car><model>Twingo</model><year>2007</year></car>
  </owner>
</owners>`

const classesXML = `<classes>
  <entry model="VW Golf" class="C"/>
  <entry model="VW Passat" class="B"/>
  <entry model="Twingo" class="A"/>
</classes>`

func testCtx(vars map[string]Sequence) *Context {
	docs := map[string]*xmltree.Node{
		"cars.xml":    xmltree.MustParse(carsXML),
		"classes.xml": xmltree.MustParse(classesXML),
	}
	return &Context{
		Docs: func(uri string) (*xmltree.Node, error) {
			d, ok := docs[uri]
			if !ok {
				return nil, fmt.Errorf("no such document %q", uri)
			}
			return d, nil
		},
		Vars: vars,
	}
}

func run(t *testing.T, src string, vars map[string]Sequence) Sequence {
	t.Helper()
	q, err := Compile(src)
	if err != nil {
		t.Fatalf("compile %q: %v", src, err)
	}
	seq, err := q.Eval(testCtx(vars))
	if err != nil {
		t.Fatalf("eval %q: %v", src, err)
	}
	return seq
}

func strs(seq Sequence) []string {
	out := make([]string, len(seq))
	for i, it := range seq {
		out[i] = ItemString(it)
	}
	return out
}

func TestPlainXPathDelegation(t *testing.T) {
	seq := run(t, `doc('cars.xml')//car/model`, nil)
	if got := strings.Join(strs(seq), "|"); got != "VW Golf|VW Passat|Twingo" {
		t.Errorf("models = %q", got)
	}
}

func TestPaperOwnCarsQuery(t *testing.T) {
	// Fig. 7: "query the person's cars" with input variable $Person.
	seq := run(t,
		`for $c in doc('cars.xml')//owner[@name=$Person]/car return $c/model/text()`,
		map[string]Sequence{"Person": {"John Doe"}})
	if got := strings.Join(strs(seq), "|"); got != "VW Golf|VW Passat" {
		t.Errorf("own cars = %q", got)
	}
	if len(seq) != 2 {
		t.Fatalf("want 2 results (two tuples after binding), got %d", len(seq))
	}
}

func TestLetAndWhere(t *testing.T) {
	seq := run(t, `
		for $c in doc('cars.xml')//car
		let $y := number($c/year)
		where $y >= 2005
		return $c/model/text()`, nil)
	if got := strings.Join(strs(seq), "|"); got != "VW Passat|Twingo" {
		t.Errorf("recent cars = %q", got)
	}
}

func TestOrderBy(t *testing.T) {
	seq := run(t, `
		for $c in doc('cars.xml')//car
		order by number($c/year) descending
		return $c/model/text()`, nil)
	if got := strings.Join(strs(seq), "|"); got != "Twingo|VW Passat|VW Golf" {
		t.Errorf("ordered = %q", got)
	}
	// String ordering.
	seq = run(t, `
		for $m in doc('cars.xml')//model
		order by $m
		return string($m)`, nil)
	if got := strings.Join(strs(seq), "|"); got != "Twingo|VW Golf|VW Passat" {
		t.Errorf("string ordered = %q", got)
	}
}

func TestMultipleForBindings(t *testing.T) {
	// Cartesian product of two clauses with a where join — the class
	// lookup of Fig. 9 expressed as a join.
	seq := run(t, `
		for $c in doc('cars.xml')//owner[@name='John Doe']/car,
		    $e in doc('classes.xml')//entry
		where $e/@model = $c/model
		return string($e/@class)`, nil)
	if got := strings.Join(strs(seq), "|"); got != "C|B" {
		t.Errorf("classes = %q", got)
	}
}

func TestConstructors(t *testing.T) {
	seq := run(t, `
		for $c in doc('cars.xml')//owner[@name=$P]/car
		return <offer to="{$P}" year="{$c/year}">{$c/model/text()}</offer>`,
		map[string]Sequence{"P": {"Jane Roe"}})
	if len(seq) != 1 {
		t.Fatalf("constructed = %d items", len(seq))
	}
	n, ok := seq[0].(*xmltree.Node)
	if !ok {
		t.Fatalf("item is %T", seq[0])
	}
	if n.Name.Local != "offer" || n.AttrValue("", "to") != "Jane Roe" || n.AttrValue("", "year") != "2007" {
		t.Errorf("element = %s", n)
	}
	if n.TextContent() != "Twingo" {
		t.Errorf("content = %q", n.TextContent())
	}
}

func TestConstructorNamespaces(t *testing.T) {
	seq := run(t, `<log:answers xmlns:log="http://log/"><log:answer n="1"/></log:answers>`, nil)
	n := seq[0].(*xmltree.Node)
	if n.Name.Space != "http://log/" || n.Name.Local != "answers" {
		t.Fatalf("name = %v", n.Name)
	}
	kids := n.ChildElements()
	if len(kids) != 1 || kids[0].Name.Space != "http://log/" {
		t.Fatalf("child = %v", kids)
	}
	// Serialization must be well-formed XML.
	if _, err := xmltree.ParseString(n.String()); err != nil {
		t.Errorf("constructed element does not serialize: %v", err)
	}
}

func TestConstructorDefaultNS(t *testing.T) {
	seq := run(t, `<root xmlns="http://d/"><inner/></root>`, nil)
	n := seq[0].(*xmltree.Node)
	if n.Name.Space != "http://d/" {
		t.Errorf("root ns = %q", n.Name.Space)
	}
}

func TestNestedConstructorWithNestedFLWOR(t *testing.T) {
	seq := run(t, `<report>{
		for $o in doc('cars.xml')//owner
		return <person name="{$o/@name}">{count($o/car)}</person>
	}</report>`, nil)
	n := seq[0].(*xmltree.Node)
	people := n.ChildElementsNamed("", "person")
	if len(people) != 2 {
		t.Fatalf("people = %d", len(people))
	}
	if people[0].AttrValue("", "name") != "John Doe" || people[0].TextContent() != "2" {
		t.Errorf("person[0] = %s", people[0])
	}
}

func TestCurlyBraceEscapes(t *testing.T) {
	seq := run(t, `<t a="{{x}}">{{literal}}</t>`, nil)
	n := seq[0].(*xmltree.Node)
	if n.AttrValue("", "a") != "{x}" {
		t.Errorf("attr = %q", n.AttrValue("", "a"))
	}
	if n.TextContent() != "{literal}" {
		t.Errorf("text = %q", n.TextContent())
	}
}

func TestIfThenElse(t *testing.T) {
	vars := map[string]Sequence{"N": {5.0}}
	seq := run(t, `if ($N > 3) then 'big' else 'small'`, vars)
	if strs(seq)[0] != "big" {
		t.Errorf("if = %v", strs(seq))
	}
	vars["N"] = Sequence{2.0}
	seq = run(t, `if ($N > 3) then 'big' else 'small'`, vars)
	if strs(seq)[0] != "small" {
		t.Errorf("if = %v", strs(seq))
	}
}

func TestSequences(t *testing.T) {
	seq := run(t, `(1, 2, 3)`, nil)
	if got := strings.Join(strs(seq), "|"); got != "1|2|3" {
		t.Errorf("seq = %q", got)
	}
	seq = run(t, `()`, nil)
	if len(seq) != 0 {
		t.Errorf("empty seq = %v", seq)
	}
	seq = run(t, `for $x in (10, 20) return $x + 1`, nil)
	if got := strings.Join(strs(seq), "|"); got != "11|21" {
		t.Errorf("iterated = %q", got)
	}
	// Parenthesized arithmetic must stay XPath.
	seq = run(t, `(1 + 2) * 3`, nil)
	if strs(seq)[0] != "9" {
		t.Errorf("(1+2)*3 = %v", strs(seq))
	}
}

func TestXQFunctions(t *testing.T) {
	if got := strs(run(t, `distinct-values(doc('classes.xml')//entry/@class)`, nil)); strings.Join(got, "|") != "C|B|A" {
		t.Errorf("distinct-values = %v", got)
	}
	if got := strs(run(t, `string-join(('a','b','c'), '-')`, nil)); got[0] != "a-b-c" {
		t.Errorf("string-join = %v", got)
	}
	if got := strs(run(t, `exists(doc('cars.xml')//car)`, nil)); got[0] != "true" {
		t.Errorf("exists = %v", got)
	}
	if got := strs(run(t, `empty(doc('cars.xml')//truck)`, nil)); got[0] != "true" {
		t.Errorf("empty = %v", got)
	}
	if got := strs(run(t, `min((3, 1, 2))`, nil)); got[0] != "1" {
		t.Errorf("min = %v", got)
	}
	if got := strs(run(t, `max((3, 1, 2))`, nil)); got[0] != "3" {
		t.Errorf("max = %v", got)
	}
	if got := strs(run(t, `avg((2, 4))`, nil)); got[0] != "3" {
		t.Errorf("avg = %v", got)
	}
	if got := strs(run(t, `reverse((1, 2, 3))`, nil)); strings.Join(got, "") != "321" {
		t.Errorf("reverse = %v", got)
	}
}

func TestKeywordsAsElementNames(t *testing.T) {
	// 'order', 'return' etc. after '/' are path steps, not keywords.
	ctx := testCtx(nil)
	ctx.Docs = func(string) (*xmltree.Node, error) {
		return xmltree.MustParse(`<po><order id="7"><return>x</return></order></po>`), nil
	}
	q := MustCompile(`doc('po')//order/return/text()`)
	seq, err := q.Eval(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != 1 || ItemString(seq[0]) != "x" {
		t.Errorf("keyword path = %v", strs(seq))
	}
}

func TestComments(t *testing.T) {
	seq := run(t, `(: pick models :) for $m in doc('cars.xml')//model return string($m)`, nil)
	if len(seq) != 3 {
		t.Errorf("with comment = %v", strs(seq))
	}
}

func TestCompileErrors(t *testing.T) {
	bad := []string{
		``,
		`for $x in`,
		`for $x doc('a') return $x`,
		`let $x = 3 return $x`, // must be :=
		`if (1) then 2`,        // missing else
		`<a>`,                  // unterminated
		`<a></b>`,              // mismatched tags
		`<a b=c/>`,             // unquoted attribute
		`{1}`,                  // bare enclosed expr
		`for $x in (1,2) give $x`,
	}
	for _, src := range bad {
		if _, err := Compile(src); err == nil {
			t.Errorf("Compile(%q) should fail", src)
		}
	}
}

func TestEvalErrors(t *testing.T) {
	ctx := testCtx(nil)
	cases := []string{
		`doc('nope.xml')//x`,
		`$Unbound`,
		`min(('a','b'))`,
	}
	for _, src := range cases {
		q, err := Compile(src)
		if err != nil {
			t.Fatalf("compile %q: %v", src, err)
		}
		if _, err := q.Eval(ctx); err == nil {
			t.Errorf("Eval(%q) should fail", src)
		}
	}
}

func TestAtomicsInContentGetSpaceSeparated(t *testing.T) {
	seq := run(t, `<t>{(1, 2, 3)}</t>`, nil)
	n := seq[0].(*xmltree.Node)
	if n.TextContent() != "1 2 3" {
		t.Errorf("content = %q", n.TextContent())
	}
}

func TestVariablesOfAllKinds(t *testing.T) {
	node := xmltree.MustParse(`<v>7</v>`).Root()
	vars := map[string]Sequence{
		"S": {"str"},
		"N": {4.0},
		"B": {true},
		"X": {node},
	}
	if got := strs(run(t, `concat($S, '-', string($N))`, vars)); got[0] != "str-4" {
		t.Errorf("concat = %v", got)
	}
	if got := strs(run(t, `$X/text()`, vars)); got[0] != "7" {
		t.Errorf("node var = %v", got)
	}
	if got := strs(run(t, `if ($B) then 1 else 2`, vars)); got[0] != "1" {
		t.Errorf("bool var = %v", got)
	}
}

func TestEvalStringAtomizes(t *testing.T) {
	q := MustCompile(`for $m in doc('cars.xml')//owner[@name='John Doe']//model return string($m)`)
	s, err := q.EvalString(testCtx(nil))
	if err != nil {
		t.Fatal(err)
	}
	if s != "VW Golf VW Passat" {
		t.Errorf("EvalString = %q", s)
	}
}

func TestConcurrentEval(t *testing.T) {
	q := MustCompile(`for $c in doc('cars.xml')//car where $c/year > 2004 return $c/model/text()`)
	done := make(chan int, 8)
	for i := 0; i < 8; i++ {
		go func() {
			seq, err := q.Eval(testCtx(nil))
			if err != nil {
				done <- -1
				return
			}
			done <- len(seq)
		}()
	}
	for i := 0; i < 8; i++ {
		if n := <-done; n != 2 {
			t.Fatalf("concurrent eval = %d", n)
		}
	}
}

// TestNestingBound: a query nests up to xmltree.MaxDepth levels, counting
// the whole query as one and each element constructor, enclosed
// expression, FLWOR return clause, if branch, sequence item and function
// argument inside it as one more; one level more is a compile error, and
// so is a 2 MB nested query, which used to overflow the stack and kill
// the process.
func TestNestingBound(t *testing.T) {
	// nest wraps inner in levels-1 pairs of open and close: levels levels.
	nest := func(open, inner, close string) func(levels int) string {
		return func(levels int) string {
			return strings.Repeat(open, levels-1) + inner + strings.Repeat(close, levels-1)
		}
	}
	for _, c := range []struct {
		construct string
		unit      int // bytes per level
		src       func(levels int) string
		items     func(levels int) int
	}{
		{"element constructors", 7, nest("<a>", "<a/>", "</a>"), nil},
		{"enclosed expressions", 9, nest("<a>{", "<a/>", "}</a>"), nil},
		{"FLWOR", 19, nest("for $x in 1 return ", "<a/>", ""), nil},
		{"if branches", 20, nest("if (1) then ", "<a/>", " else ()"), nil},
		{"sequence items", 9, nest("(<a/>, ", "<a/>", ")"), func(levels int) int { return levels }},
		{"function arguments", 8, nest("exists(", "<a/>", ")"), nil},
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
					q, err := Compile(c.src(r.levels))
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
					want := 1
					if c.items != nil {
						want = c.items(r.levels)
					}
					if seq, err := q.Eval(&Context{}); err != nil || len(seq) != want {
						t.Fatalf("Eval = %d items, %v; want %d", len(seq), err, want)
					}
				})
			}
		})
	}
}

// TestVariableScopes pins the variable and doc() semantics of the
// allocation-lean XPath bridge: a repeated node in a variable's sequence
// is visited once, an inner binding shadows an outer one and a let sees the
// tuple it is in, a variable the query does not reference is not converted,
// and doc() keeps its error texts.
func TestVariableScopes(t *testing.T) {
	doc := xmltree.MustParse(carsXML)
	owners := doc.Root().ChildElements()
	vars := map[string]Sequence{
		"O":     {owners[0], owners[0], owners[1]},
		"Atoms": {"a", "b"}, // usable in no path, so an error only where referenced
		"S":     {"outer"},
	}
	for _, c := range []struct{ src, want string }{
		{`$O/car/model/text()`, "VW Golf|VW Passat|Twingo"},
		{`count($O/car)`, "3"},
		{`for $S in ('inner') return $S`, "inner"},
		{`(for $S in ('inner') return $S, $S)`, "inner|outer"},
		{`for $o in $O let $n := string($o/@name) return concat($n, ':', count($o/car))`, "John Doe:2|John Doe:2|Jane Roe:1"},
		{`for $i in (1, 2) let $j := $i * 10 return $j`, "10|20"},
		{`string($S)`, "outer"},
	} {
		q, err := Compile(c.src)
		if err != nil {
			t.Fatalf("compile %q: %v", c.src, err)
		}
		seq, err := q.Eval(&Context{Vars: vars})
		if err != nil {
			t.Fatalf("eval %q: %v", c.src, err)
		}
		if got := strings.Join(strs(seq), "|"); got != c.want {
			t.Errorf("%s = %q, want %q", c.src, got, c.want)
		}
	}
	for _, c := range []struct {
		ctx       *Context
		src, want string
	}{
		{&Context{Vars: vars}, `$Atoms/x`, "xq: variable $Atoms: xq: a sequence of multiple atomic values cannot be used inside a path expression"},
		{&Context{}, `doc('cars.xml')//car`, `xq: doc("cars.xml"): no document resolver configured`},
		{testCtx(nil), `count(doc('nope.xml')//car)`, `xq: doc("nope.xml"): no such document "nope.xml"`},
	} {
		_, err := MustCompile(c.src).Eval(c.ctx)
		if err == nil || err.Error() != c.want {
			t.Errorf("%s: error %v, want %s", c.src, err, c.want)
		}
	}
}
