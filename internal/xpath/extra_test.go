package xpath

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/xmltree"
)

func TestNameFunctionEdgeCases(t *testing.T) {
	ctx := ctxFor(`<a><b/></a>`)
	// Empty node-set argument → empty string.
	if got := evalStr(t, ctx, `name(/nothing)`); got != "" {
		t.Errorf("name(empty) = %q", got)
	}
	if got := evalStr(t, ctx, `local-name(/nothing)`); got != "" {
		t.Errorf("local-name(empty) = %q", got)
	}
	// No-argument versions use the context node.
	doc := xmltree.MustParse(`<root/>`)
	c2 := &Context{Node: doc.Root()}
	if got, _ := MustCompile(`name()`).EvalString(c2); got != "root" {
		t.Errorf("name() = %q", got)
	}
	// Non-node-set argument is an error.
	if _, err := MustCompile(`name('x')`).Eval(ctx); err == nil {
		t.Error("name(string) should fail")
	}
}

func TestStringFunctionNoArg(t *testing.T) {
	doc := xmltree.MustParse(`<v>42</v>`)
	c := &Context{Node: doc.Root()}
	if got, _ := MustCompile(`string()`).EvalString(c); got != "42" {
		t.Errorf("string() = %q", got)
	}
	if got, _ := MustCompile(`string-length()`).EvalNumber(c); got != 2 {
		t.Errorf("string-length() = %v", got)
	}
	if got, _ := MustCompile(`normalize-space()`).EvalString(c); got != "42" {
		t.Errorf("normalize-space() = %q", got)
	}
	if got, _ := MustCompile(`number()`).EvalNumber(c); got != 42 {
		t.Errorf("number() = %v", got)
	}
}

func TestTranslateDuplicatesAndDrops(t *testing.T) {
	ctx := ctxFor(`<a/>`)
	// Duplicate source char: first mapping wins.
	if got := evalStr(t, ctx, `translate('aaa', 'aa', 'bc')`); got != "bbb" {
		t.Errorf("translate dup = %q", got)
	}
}

func TestNumberFormatting(t *testing.T) {
	if FormatNumber(math.NaN()) != "NaN" {
		t.Error("NaN")
	}
	if FormatNumber(math.Inf(-1)) != "-Infinity" {
		t.Error("-Infinity")
	}
	if FormatNumber(-0.5) != "-0.5" {
		t.Error("-0.5")
	}
	if FormatNumber(1e21) == "" {
		t.Error("big numbers render")
	}
}

func TestExprStringReturnsSource(t *testing.T) {
	src := `//car[@year>2004]/model`
	if MustCompile(src).String() != src {
		t.Error("String() should return the source")
	}
}

func TestDescendantOrSelfAbbrevOnAttrs(t *testing.T) {
	ctx := ctxFor(`<a><b x="1"><c x="2"/></b></a>`)
	ns := evalNodes(t, ctx, `//@x`)
	if len(ns) != 2 {
		t.Fatalf("//@x = %d", len(ns))
	}
}

func TestUnionDeduplicates(t *testing.T) {
	ctx := ctxFor(`<a><b/></a>`)
	if got := evalNum(t, ctx, `count(//b | //b)`); got != 1 {
		t.Errorf("union dedup = %v", got)
	}
}

func TestBareSlashSelectsRoot(t *testing.T) {
	doc := xmltree.MustParse(`<a><b/></a>`)
	ctx := &Context{Node: doc.Root().ChildElements()[0]} // context deep in tree
	ns := evalNodes(t, ctx, `/`)
	if len(ns) != 1 || ns[0].Kind != xmltree.DocumentNode {
		t.Fatalf("/ = %v", ns)
	}
}

func TestDocFunction(t *testing.T) {
	doc := xmltree.MustParse(`<d><e>1</e><e>2</e></d>`)
	ctx := ctxFor(`<a/>`)
	ctx.Docs = func(uri string) (*xmltree.Node, error) {
		if uri != "d.xml" {
			return nil, errors.New("no such document")
		}
		return doc, nil
	}
	if got := evalNum(t, ctx, `count(doc('d.xml')//e)`); got != 2 {
		t.Errorf("count(doc('d.xml')//e) = %v", got)
	}
	for _, c := range []struct {
		docs func(string) (*xmltree.Node, error)
		src  string
		want string
	}{
		{nil, `doc('d.xml')`, `xq: doc("d.xml"): no document resolver configured`},
		{ctx.Docs, `doc('x.xml')/e`, `xq: doc("x.xml"): no such document`},
		{ctx.Docs, `doc('d.xml', 'x.xml')`, `xpath: doc() called with 2 arguments`},
		{ctx.Docs, `nosuch()`, `xpath: unknown function nosuch()`},
	} {
		_, err := MustCompile(c.src).Eval(&Context{Node: ctx.Node, Docs: c.docs})
		if err == nil || err.Error() != c.want {
			t.Errorf("%s: error %v, want %s", c.src, err, c.want)
		}
	}
}

func TestArityErrors(t *testing.T) {
	ctx := ctxFor(`<a/>`)
	bad := []string{
		`concat('a')`,
		`substring('a')`,
		`not()`,
		`translate('a','b')`,
		`position(1)`,
	}
	for _, src := range bad {
		e, err := Compile(src)
		if err != nil {
			continue // some are parse errors, fine
		}
		if _, err := e.Eval(ctx); err == nil {
			t.Errorf("%s should fail arity check", src)
		}
	}
}

func TestStartsWithEndsWith(t *testing.T) {
	ctx := ctxFor(`<a/>`)
	if !evalBool(t, ctx, `ends-with('database', 'base')`) {
		t.Error("ends-with")
	}
}

func TestNodeTypeTests(t *testing.T) {
	ctx := ctxFor(`<a>t<!--c--><b/></a>`)
	if got := evalNum(t, ctx, `count(/a/node())`); got != 3 {
		t.Errorf("node() = %v", got)
	}
	if got := evalNum(t, ctx, `count(/a/comment())`); got != 1 {
		t.Errorf("comment() = %v", got)
	}
	if got := evalNum(t, ctx, `count(/a/text())`); got != 1 {
		t.Errorf("text() = %v", got)
	}
}

func TestFollowingAndPrecedingAxes(t *testing.T) {
	doc := `<r><a><a1/></a><b><b1/><b2/></b><c><c1/></c></r>`
	ctx := ctxFor(doc)
	// following of b1: b2 (sibling subtree) then c and c1 (ancestor's
	// following siblings' subtrees). a/a1 are preceding; r is an ancestor.
	var names []string
	for _, n := range evalNodes(t, ctx, `//b1/following::*`) {
		names = append(names, n.Name.Local)
	}
	if got := strings.Join(names, " "); got != "b2 c c1" {
		t.Errorf("following = %q", got)
	}
	names = nil
	for _, n := range evalNodes(t, ctx, `//c1/preceding::*`) {
		names = append(names, n.Name.Local)
	}
	// preceding excludes ancestors (r, c); order here is reverse-ish
	// within the implementation; compare as sets.
	want := map[string]bool{"a": true, "a1": true, "b": true, "b1": true, "b2": true}
	if len(names) != len(want) {
		t.Fatalf("preceding = %v", names)
	}
	for _, n := range names {
		if !want[n] {
			t.Errorf("unexpected preceding node %q", n)
		}
	}
}

func TestLexerErrorMessages(t *testing.T) {
	_, err := Compile(`//a[# ]`)
	if err == nil || !strings.Contains(err.Error(), "position") {
		t.Errorf("error = %v", err)
	}
}

func TestNegativeNumbersAndPrecedence(t *testing.T) {
	ctx := ctxFor(`<a/>`)
	if got := evalNum(t, ctx, `-3 * -2`); got != 6 {
		t.Errorf("neg mult = %v", got)
	}
	if got := evalNum(t, ctx, `2 + 3 mod 2`); got != 3 {
		t.Errorf("mod precedence = %v", got)
	}
	if !evalBool(t, ctx, `1 < 2 = true()`) {
		t.Error("comparison chains bind left")
	}
}
