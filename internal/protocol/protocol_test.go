package protocol

import (
	"testing"

	"repro/internal/bindings"
	"repro/internal/xmltree"
)

func TestAnswersRoundTrip(t *testing.T) {
	rel := bindings.NewRelation(
		bindings.MustTuple("Person", bindings.Str("John Doe"), "Dest", bindings.Str("Paris")),
		bindings.MustTuple("Person", bindings.Str("Jane"), "N", bindings.Num(7)),
	)
	a := NewAnswer("rule-1", "event", rel)
	enc := EncodeAnswers(a)
	// It must serialize and reparse as valid XML.
	doc, err := xmltree.ParseString(enc.String())
	if err != nil {
		t.Fatalf("serialized answers do not parse: %v", err)
	}
	dec, err := DecodeAnswers(doc)
	if err != nil {
		t.Fatal(err)
	}
	if dec.RuleID != "rule-1" || dec.Component != "event" {
		t.Errorf("ids = %q, %q", dec.RuleID, dec.Component)
	}
	if !dec.Relation().Equal(rel) {
		t.Errorf("relation round trip:\nwant %s\ngot %s", rel, dec.Relation())
	}
}

func TestAnswersWithResults(t *testing.T) {
	frag := xmltree.MustParse(`<car>Golf</car>`).Root()
	a := &Answer{
		RuleID: "r",
		Rows: []AnswerRow{
			{Tuple: bindings.MustTuple("Person", bindings.Str("John"))},
			{
				Tuple:   bindings.MustTuple("Person", bindings.Str("John")),
				Results: []bindings.Value{bindings.Fragment(frag), bindings.Str("Passat")},
			},
		},
	}
	enc := EncodeAnswers(a)
	dec, err := DecodeAnswers(xmltree.MustParse(enc.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.Rows) != 2 {
		t.Fatalf("rows = %d, want 2 (duplicate tuples with distinct results must survive)", len(dec.Rows))
	}
	if !dec.HasResults() {
		t.Fatal("results lost")
	}
	rs := dec.Rows[1].Results
	if len(rs) != 2 {
		t.Fatalf("results = %d, want 2", len(rs))
	}
	if rs[0].Kind() != bindings.XML || rs[0].AsString() != "Golf" {
		t.Errorf("result[0] = %v", rs[0])
	}
	if rs[1].AsString() != "Passat" {
		t.Errorf("result[1] = %v", rs[1])
	}
	if len(dec.Rows[0].Results) != 0 {
		t.Errorf("row 0 should have no results")
	}
}

func TestValueTypesRoundTrip(t *testing.T) {
	vals := []bindings.Value{
		bindings.Str("plain"),
		bindings.Str(""),
		bindings.Num(3.25),
		bindings.Num(-42),
		bindings.Boolean(true),
		bindings.Boolean(false),
		bindings.Ref("http://example.org/res#1"),
		bindings.Fragment(xmltree.MustParse(`<e a="1"><f/></e>`).Root()),
	}
	for _, v := range vals {
		children, typ := EncodeValue(v)
		got, err := DecodeValue(children, typ)
		if err != nil {
			t.Fatalf("decode %v: %v", v, err)
		}
		if got.Kind() != v.Kind() || !got.Equal(v) {
			t.Errorf("round trip %v (%v) -> %v (%v)", v, v.Kind(), got, got.Kind())
		}
	}
}

func TestDecodeValueErrors(t *testing.T) {
	if _, err := DecodeValue([]*xmltree.Node{xmltree.NewText("abc")}, "number"); err == nil {
		t.Error("bad number should error")
	}
	if _, err := DecodeValue([]*xmltree.Node{xmltree.NewText("maybe")}, "boolean"); err == nil {
		t.Error("bad boolean should error")
	}
}

func TestRequestRoundTrip(t *testing.T) {
	expr := xmltree.MustParse(`<q:query xmlns:q="http://example.org/xq">doc('cars')//car</q:query>`).Root()
	req := &Request{
		Kind:       Query,
		RuleID:     "rule-7",
		Component:  "query[1]",
		Language:   "http://example.org/xq",
		Expression: expr,
		Bindings: bindings.NewRelation(
			bindings.MustTuple("Person", bindings.Str("John Doe")),
		),
	}
	enc := EncodeRequest(req)
	dec, err := DecodeRequest(xmltree.MustParse(enc.String()))
	if err != nil {
		t.Fatal(err)
	}
	if dec.Kind != Query || dec.RuleID != "rule-7" || dec.Component != "query[1]" || dec.Language != "http://example.org/xq" {
		t.Errorf("header = %+v", dec)
	}
	if !xmltree.EqualIgnoringWhitespace(dec.Expression, expr) {
		t.Errorf("expression round trip:\nwant %s\ngot  %s", expr, dec.Expression)
	}
	if !dec.Bindings.Equal(req.Bindings) {
		t.Errorf("bindings round trip:\nwant %s\ngot %s", req.Bindings, dec.Bindings)
	}
}

func TestDecodeRequestRejectsUnknownKind(t *testing.T) {
	doc := xmltree.MustParse(`<eca:request xmlns:eca="` + ECANS + `" kind="bogus" rule="r" component="c"/>`)
	if _, err := DecodeRequest(doc); err == nil {
		t.Error("unknown kind should error")
	}
}

func TestDecodeAnswersRejectsWrongRoot(t *testing.T) {
	doc := xmltree.MustParse(`<wrong/>`)
	if _, err := DecodeAnswers(doc); err == nil {
		t.Error("wrong root should error")
	}
	doc2 := xmltree.MustParse(`<log:answer xmlns:log="` + LogNS + `"/>`)
	if _, err := DecodeAnswers(doc2); err == nil {
		t.Error("answer (not answers) should error")
	}
}

func TestVariableWithoutNameRejected(t *testing.T) {
	doc := xmltree.MustParse(`<log:answers xmlns:log="` + LogNS + `"><log:answer><log:variable>x</log:variable></log:answer></log:answers>`)
	if _, err := DecodeAnswers(doc); err == nil {
		t.Error("nameless variable should error")
	}
}

func TestEmptyAnswersMeansNoTuples(t *testing.T) {
	// An empty log:answers message (no answer elements) is how a service
	// reports "no results": the relation becomes empty and downstream
	// joins eliminate the rule instance.
	a := NewAnswer("r", "c", bindings.NewRelation())
	dec, err := DecodeAnswers(xmltree.MustParse(EncodeAnswers(a).String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.Rows) != 0 || !dec.Relation().Empty() {
		t.Errorf("expected empty answer, got %d rows", len(dec.Rows))
	}
}

// An answer's tenant rides as an attribute written only when set, so the
// default tenant's log:answers bytes are those of a tenant-unaware build.
func TestAnswerTenantAttribute(t *testing.T) {
	a := &Answer{RuleID: "r", Component: "event[1]"}
	if _, ok := EncodeAnswers(a).Attr("", "tenant"); ok {
		t.Fatalf("default tenant written: %s", EncodeAnswers(a))
	}
	a.Tenant = "acme"
	b, err := DecodeAnswers(xmltree.MustParse(EncodeAnswers(a).String()))
	if err != nil || b.Tenant != "acme" {
		t.Fatalf("tenant came back as %q (%v)", b.Tenant, err)
	}
}
