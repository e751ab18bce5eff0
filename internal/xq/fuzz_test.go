package xq

import (
	"strings"
	"testing"
	"time"

	"repro/internal/xmltree"
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

// nested wraps src in n levels of parentheses, spaced so that no "(:"
// comment opener forms whatever src begins with.
func nested(src string, n int) string {
	return strings.Repeat("( ", n) + src + strings.Repeat(" )", n)
}

// FuzzCompile: Compile never panics and runs in time linear in its input,
// and any query nested deeper than xmltree.MaxDepth is rejected. The
// seeds are the figures' queries and the nesting and operator-chain
// inputs a rule's query may carry, at and past the bound.
func FuzzCompile(f *testing.F) {
	for _, q := range figureQueries {
		f.Add(q)
	}
	for _, n := range []int{xmltree.MaxDepth, xmltree.MaxDepth + 1} {
		f.Add(nested("1", n))
		f.Add("1" + strings.Repeat("+1", n))
		f.Add(strings.Repeat("<a>{", n) + "1" + strings.Repeat("}</a>", n))
		f.Add(strings.Repeat("f(", n) + "1" + strings.Repeat(")", n))
	}
	f.Fuzz(func(t *testing.T, src string) {
		start := time.Now()
		Compile(src)
		if took := time.Since(start); took > time.Second+time.Duration(len(src))*time.Microsecond {
			t.Fatalf("Compile of %d bytes took %v", len(src), took)
		}
		if _, err := Compile(nested(src, xmltree.MaxDepth+1)); err == nil {
			t.Fatalf("query nested %d levels deep accepted", xmltree.MaxDepth+1)
		}
	})
}
