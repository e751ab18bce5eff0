package protocol

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/bindings"
	"repro/internal/xmltree"
)

// arbRelation wraps a relation for quick.Generator.
type arbRelation struct{ R *bindings.Relation }

// Generate builds relations over random variable names and all value kinds.
func (arbRelation) Generate(rng *rand.Rand, size int) reflect.Value {
	names := []string{"Person", "Dest", "OwnCar", "Class", "N"}
	mkValue := func() bindings.Value {
		switch rng.Intn(5) {
		case 0:
			return bindings.Str(randWord(rng))
		case 1:
			return bindings.Num(float64(rng.Intn(2000)-1000) / 4)
		case 2:
			return bindings.Boolean(rng.Intn(2) == 0)
		case 3:
			return bindings.Ref("http://example.org/" + randWord(rng))
		default:
			e := xmltree.NewElement("", "v")
			e.SetAttr("", "k", randWord(rng))
			e.AppendText(randWord(rng))
			return bindings.Fragment(e)
		}
	}
	r := bindings.NewRelation()
	n := rng.Intn(6)
	for i := 0; i < n; i++ {
		t := bindings.Tuple{}
		for _, name := range names {
			if rng.Intn(2) == 0 {
				t[name] = mkValue()
			}
		}
		r.Add(t)
	}
	return reflect.ValueOf(arbRelation{r})
}

func randWord(rng *rand.Rand) string {
	letters := "abcdefg <>&\"'π"
	n := 1 + rng.Intn(8)
	out := make([]rune, n)
	runes := []rune(letters)
	for i := range out {
		out[i] = runes[rng.Intn(len(runes))]
	}
	return string(out)
}

// Property: any relation survives encode → serialize → parse → decode.
func TestQuickAnswersWireRoundTrip(t *testing.T) {
	f := func(ar arbRelation) bool {
		enc := EncodeAnswers(NewAnswer("r", "c", ar.R))
		doc, err := xmltree.ParseString(enc.String())
		if err != nil {
			t.Logf("serialize: %v", err)
			return false
		}
		dec, err := DecodeAnswers(doc)
		if err != nil {
			t.Logf("decode: %v", err)
			return false
		}
		return dec.Relation().Equal(ar.R)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: requests round-trip including kind, ids and bindings.
func TestQuickRequestWireRoundTrip(t *testing.T) {
	kinds := []RequestKind{RegisterEvent, UnregisterEvent, Query, Test, Action}
	f := func(ar arbRelation, kindIdx uint8, rule, comp string) bool {
		req := &Request{
			Kind:       kinds[int(kindIdx)%len(kinds)],
			RuleID:     sanitize(rule),
			Component:  sanitize(comp),
			Language:   "http://lang/x",
			Expression: xmltree.NewElement("http://lang/x", "expr"),
			Bindings:   ar.R,
		}
		doc, err := xmltree.ParseString(EncodeRequest(req).String())
		if err != nil {
			return false
		}
		dec, err := DecodeRequest(doc)
		if err != nil {
			return false
		}
		return dec.Kind == req.Kind &&
			dec.RuleID == req.RuleID &&
			dec.Component == req.Component &&
			dec.Bindings.Equal(req.Bindings)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// sanitize keeps attribute values parseable (strip the characters XML 1.0
// forbids entirely: control chars and the non-characters U+FFFE, U+FFFF).
func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		if r >= 0x20 && r != 0xFFFD && r != 0xFFFE && r != 0xFFFF {
			out = append(out, r)
		}
	}
	return string(out)
}
