package xq

import (
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// figureQueries are the XQuery-lite queries of the Figs. 4–11 car-rental
// rule (Fig. 7's own cars, Fig. 9's class lookup, Fig. 10's generated
// log:answers) and of the federation example.
var figureQueries = []string{
	"for $c in doc('cars.xml')//owner[@name=$Person]/car\n        return $c/model/text()",
	"//entry[@model='$OwnCar']/@class",
	`<log:answers xmlns:log="http://www.semwebtech.org/languages/2006/logic">{for $c in doc('avail.xml')//city[@name='$Dest']/car ` +
		`return <log:answer><log:variable name="Class">{string($c/@class)}</log:variable>` +
		`<log:variable name="Avail">{$c/name/text()}</log:variable></log:answer>}</log:answers>`,
	"for $w in doc('warehouse.xml')//stock[@supplier=$Supplier and @item=$Item]\n        return $w/@units",
}

// commentQueries have a comment at a token boundary.
var commentQueries = []string{
	`for $x in (1,2) return $x (: c :)`,
	`1 (: c :) + 2`,
	`count($c) (: c :) > 2`,
	`<a (: c :) b="1"/> (: c :)`,
	`<a/> (: c`,
}

// nested wraps src in n levels of parentheses, spaced so that no "(:"
// comment opener forms whatever src begins with.
func nested(src string, n int) string {
	return strings.Repeat("( ", n) + src + strings.Repeat(" )", n)
}

// wrappedChains are queries of about size bytes that nest calls around
// one long operator chain: 255 exists( calls, 200 count( calls each
// closed by ") + 1", and 120 count((1, calls. At 2 MiB a parser that
// parsed the chain again at each level would take quadratic time.
func wrappedChains(size int) []string {
	wrap := func(open, close string, levels int) string {
		n := (size - levels*(len(open)+len(close))) / 2
		return strings.Repeat(open, levels) + "1" + strings.Repeat("+1", n) + strings.Repeat(close, levels)
	}
	return []string{wrap("exists(", ")", 255), wrap("count(", ") + 1", 200), wrap("count((1, ", "))", 120)}
}

// compileBound is the time Compile may take for src: linear in its size.
func compileBound(src string) time.Duration {
	return time.Second + time.Duration(len(src))*time.Microsecond
}

// reserved matches the texts XQuery reserves: there a text XPath accepts
// may mean something else to xq, as "if (1)" calls a function named if in
// XPath and opens a conditional in xq.
var reserved = regexp.MustCompile(`\b(for|let)\s*\$|\bif\s*\(|\(:`)

// FuzzCompile: Compile never panics and runs in time linear in its input,
// and any query nested deeper than xmltree.MaxDepth is rejected.
// XQuery-lite contains XPath: an input xpath.Compile accepts that holds no
// reserved text compiles, and where both evaluate it on one document they
// give the same items. The seeds are the figures' queries, comments at
// token boundaries, and the nesting and operator-chain inputs a rule's
// query may carry, at and past the bound, with the wrapped chains at
// 3 KiB; TestWrappedChains applies the same checks to them at 2 MiB.
func FuzzCompile(f *testing.F) {
	for _, q := range append(figureQueries, commentQueries...) {
		f.Add(q)
	}
	for _, n := range []int{xmltree.MaxDepth, xmltree.MaxDepth + 1} {
		f.Add(nested("1", n))
		f.Add("1" + strings.Repeat("+1", n))
		f.Add(strings.Repeat("<a>{", n) + "1" + strings.Repeat("}</a>", n))
		f.Add(strings.Repeat("f(", n) + "1" + strings.Repeat(")", n))
	}
	for _, q := range wrappedChains(3 << 10) {
		f.Add(q)
	}
	doc := xmltree.MustParse(`<a x="1"><b>2</b></a>`)
	xctx := &xpath.Context{Node: doc, Vars: map[string]xpath.Object{"Person": "p", "c": xpath.NodeSet{doc.Root()}}}
	ctx := &Context{ContextNode: doc, Vars: map[string]Sequence{"Person": {"p"}, "c": {doc.Root()}}}
	f.Fuzz(func(t *testing.T, src string) {
		start := time.Now()
		q, err := Compile(src)
		if took := time.Since(start); took > compileBound(src) {
			t.Fatalf("Compile of %d bytes took %v", len(src), took)
		}
		if _, err := Compile(nested(src, xmltree.MaxDepth+1)); err == nil {
			t.Fatalf("query nested %d levels deep accepted", xmltree.MaxDepth+1)
		}
		x, xerr := xpath.Compile(src)
		if xerr != nil || reserved.MatchString(src) {
			return
		}
		if err != nil {
			t.Fatalf("xpath.Compile accepts %q, Compile rejects it: %v", src, err)
		}
		if len(src) > 64 {
			return
		}
		o, xerr := x.Eval(xctx)
		seq, err := q.Eval(ctx)
		if xerr == nil && err == nil && !sameItems(xpathToSeq(o), seq) {
			t.Fatalf("%q: xpath gives %v, xq gives %v", src, xpathToSeq(o), seq)
		}
	})
}

// sameItems reports whether a and b hold the same nodes and equal atomics.
func sameItems(a, b Sequence) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] && ItemString(a[i]) != ItemString(b[i]) {
			return false
		}
	}
	return true
}

// TestWrappedChains applies FuzzCompile's checks to the 2 MiB
// wrappedChains queries: each compiles within the linear bound, nested
// one level past xmltree.MaxDepth it is rejected, and xpath accepting it
// means xq does.
func TestWrappedChains(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector slows a 2 MiB compile past the bound")
	}
	for _, src := range wrappedChains(2 << 20) {
		start := time.Now()
		_, err := Compile(src)
		if took := time.Since(start); took > compileBound(src) {
			t.Errorf("Compile of %.20s… (%d bytes) took %v", src, len(src), took)
		}
		if err != nil {
			t.Errorf("Compile of %.20s…: %v", src, err)
		}
		if _, err := Compile(nested(src, xmltree.MaxDepth+1)); err == nil {
			t.Errorf("%.20s… nested %d levels deep accepted", src, xmltree.MaxDepth+1)
		}
		if _, xerr := xpath.Compile(src); xerr == nil && !reserved.MatchString(src) && err != nil {
			t.Errorf("xpath.Compile accepts %.20s…, Compile rejects it: %v", src, err)
		}
	}
}
