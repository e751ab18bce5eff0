package bindings

import (
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"repro/internal/xmltree"
)

// refKey is Value.Key as it was written before Equal and AppendKey stopped
// rendering keys: every text value goes through strconv.ParseFloat, and
// numbers through formatNumber. It is the reference the key-free
// implementation is tested against.
func refKey(v Value) string {
	text := func(s string) string {
		if f, err := strconv.ParseFloat(strings.TrimSpace(s), 64); err == nil {
			return "n:" + formatNumber(f)
		}
		return "s:" + s
	}
	switch v.kind {
	case URI:
		return "u:" + v.str
	case Number:
		return "n:" + formatNumber(v.num)
	case Bool:
		if v.b {
			return "b:true"
		}
		return "b:false"
	case XML:
		return text(v.node.TextContent())
	default:
		return text(v.str)
	}
}

// refEqual is Equal's definition: equal keys, and structural equality when
// both sides are XML.
func refEqual(v, w Value) bool {
	if refKey(v) != refKey(w) {
		return false
	}
	if v.kind == XML && w.kind == XML {
		return xmltree.EqualIgnoringWhitespace(v.node, w.node)
	}
	return true
}

// keyEdgeTexts are texts on the border of what ParseFloat accepts.
var keyEdgeTexts = []string{
	"", " ", "1", " 1 ", "+1", "-0", "-0.0", "0", "01", "1.0", ".5", "5.", "0x10", "0x1p-2",
	"1e3", "1E3", "1e400", "-1e400", "1e21", "9223372036854775808", "-9223372036854775808",
	"Inf", "+Inf", "-inf", "infinity", "+Infinity", "nan", "NaN", "-nan", "1_000", "0x_1p0",
	"i", "I", "n", "N", "N/A", "Nancy", "inform", "-", "+", ".", "e3", "k0042", "John Doe",
	" 1 ", " 1", "1　", "\u0085x", " x",
}

var keyEdgeNumbers = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.5, 1000, 1e20, 1e21, -1e21, 1 << 62, 1 << 63, -(1 << 63),
	math.MaxFloat64, math.SmallestNonzeroFloat64, math.Inf(1), math.Inf(-1), math.NaN(), 0.1, 1.0 / 3,
}

// genValues returns every edge case as each kind it can take, plus n random
// values over an alphabet dense in float syntax.
func genValues(rng *rand.Rand, n int) []Value {
	var out []Value
	frag := func(shape, text string) Value {
		return Fragment(xmltree.NewElement("", shape, xmltree.NewText(text)))
	}
	for _, s := range keyEdgeTexts {
		out = append(out, Str(s), Ref(s), frag("v", s), frag("w", s))
	}
	for _, f := range keyEdgeNumbers {
		out = append(out, Num(f))
	}
	out = append(out, Boolean(true), Boolean(false), Str("true"), Ref("true"),
		Fragment(xmltree.NewElement("", "v", xmltree.NewText(" "), xmltree.NewElement("", "i", xmltree.NewText("1")))),
		Fragment(xmltree.NewElement("", "v", xmltree.NewElement("", "i", xmltree.NewText("1")))))
	const alphabet = "0123456789+-.eExXpP_ iInNaAfFtTy k"
	runes := []rune(alphabet)
	for i := 0; i < n; i++ {
		var b strings.Builder
		for l := rng.Intn(6); l > 0; l-- {
			b.WriteRune(runes[rng.Intn(len(runes))])
		}
		s := b.String()
		switch rng.Intn(6) {
		case 0:
			out = append(out, Ref(s))
		case 1:
			out = append(out, frag([]string{"v", "w"}[rng.Intn(2)], s))
		case 2:
			out = append(out, Num(float64(rng.Intn(2001)-1000)/float64(1+rng.Intn(8))))
		default:
			out = append(out, Str(s))
		}
	}
	return out
}

// TestKeyAndEqualMatchReference: Key and AppendKey render exactly the
// reference key, Equal(v, w) ≡ keys equal ∧ XML-structural, and AsNumber
// parses exactly what ParseFloat does — over edge cases and random values.
func TestKeyAndEqualMatchReference(t *testing.T) {
	vals := genValues(rand.New(rand.NewSource(1)), 600)
	for _, v := range vals {
		want := refKey(v)
		if got := v.Key(); got != want {
			t.Errorf("Key(%v) = %q, reference %q", v, got, want)
		}
		if got := string(v.AppendKey([]byte("prefix"))); got != "prefix"+want {
			t.Errorf("AppendKey(%v) = %q, reference %q", v, got, want)
		}
		if v.kind == String {
			f, err := strconv.ParseFloat(strings.TrimSpace(v.str), 64)
			if g, ok := v.AsNumber(); ok != (err == nil) || (ok && g != f && !math.IsNaN(f)) {
				t.Errorf("AsNumber(%v) = %v, %v; ParseFloat %v, %v", v, g, ok, f, err)
			}
		}
	}
	equal := 0
	for _, v := range vals {
		for _, w := range vals {
			got := v.Equal(w)
			if want := refEqual(v, w); got != want {
				t.Fatalf("Equal(%v, %v) = %v, reference %v (keys %q, %q)", v, w, got, want, refKey(v), refKey(w))
			}
			if got && v != w {
				equal++
			}
		}
	}
	if equal < 1000 {
		t.Errorf("only %d equal pairs of distinct values: the generator is too sparse", equal)
	}
}

var equalSink bool

// TestEqualDoesNotAllocate: comparing texts that are not numbers — most
// join keys — allocates nothing; ParseFloat's error used to cost six
// allocations per Equal.
func TestEqualDoesNotAllocate(t *testing.T) {
	for _, pair := range [][2]Value{
		{Str("k0042"), Str("John Doe")},
		{Str("k0042"), Str("k0042")},
		{Str("1.0"), Num(1)},
		{Ref("http://x/"), Str("http://x/")},
	} {
		v, w := pair[0], pair[1]
		if n := testing.AllocsPerRun(200, func() { equalSink = v.Equal(w) }); n != 0 {
			t.Errorf("Equal(%v, %v): %v allocations, want 0", v, w, n)
		}
	}
}
