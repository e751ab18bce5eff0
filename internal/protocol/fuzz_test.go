package protocol_test

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/bindings"
	"repro/internal/protocol"
	"repro/internal/xmltree"
)

// FuzzDecodeAnswers drives the log:answers / log:trace decoder, which reads
// network bytes in the GRH's HTTP dispatch, POST /engine/detect and the
// Fig. 10 opaque path, with arbitrary documents. Decoding must not panic,
// and an accepted answer must survive the wire: EncodeAnswers, serialize,
// parse and decode again give the same rule, component, tenant and rows.
func FuzzDecodeAnswers(f *testing.F) {
	// The log:answers messages of the Figs. 5–11 replay: the Fig. 8 answer
	// with its two functional results, the Fig. 9 per-tuple answers and
	// the Fig. 10 log:answers the raw XQuery node generates.
	run, err := bench.RunScenario()
	if err != nil {
		f.Fatal(err)
	}
	var fig8 *protocol.Answer
	for _, tr := range run.Traces {
		doc, err := xmltree.ParseString(tr.Payload)
		if err != nil {
			continue
		}
		if a, err := protocol.DecodeAnswers(doc); err == nil {
			f.Add([]byte(tr.Payload))
			if fig8 == nil && a.HasResults() {
				fig8 = a
			}
		}
	}
	run.Cleanup()
	if fig8 == nil {
		f.Fatal("the figure replay produced no log:answers with functional results")
	}
	// The same answer as a trace-aware service returns it, with log:trace.
	fig8.TraceID, fig8.TraceParent = "car-rental#1", "query[1]"
	fig8.Trace = []protocol.TraceSpan{
		{Phase: "parse", Start: time.Unix(1160000000, 0), Duration: 8300 * time.Nanosecond, TuplesIn: 1},
		{Phase: "evaluate", Duration: 412 * time.Microsecond, TuplesIn: 1, TuplesOut: 2},
		{Phase: "encode", Duration: 5100 * time.Nanosecond, TuplesOut: 2},
	}
	f.Add([]byte(protocol.EncodeAnswers(fig8).String()))
	// Every value type, a detection's tenant and lifecycle stamps, an
	// empty answer.
	f.Add([]byte(`<log:answers xmlns:log="` + protocol.LogNS + `" rule="r" component="event" tenant="acme" admitted="2006-03-26T10:00:00.5Z" published="2006-03-26T10:00:01Z">
	  <log:answer>
	    <log:variable name="S" type="string">John Doe</log:variable>
	    <log:variable name="N" type="number">2.5</log:variable>
	    <log:variable name="B" type="boolean">1</log:variable>
	    <log:variable name="U" type="uri">http://example.org/x</log:variable>
	    <log:variable name="X" type="xml"><t:car xmlns:t="http://t/" class="B">Opel Astra</t:car></log:variable>
	    <log:result type="number">7</log:result>
	    <other xmlns="http://t/">ignored</other>
	  </log:answer>
	  <log:answer/>
	</log:answers>`))
	// Two values the serializer used to break on the wire: a carriage
	// return in a string came back as a newline, and a namespace URI with
	// markup characters was declared Go-quoted, which XML cannot read.
	f.Add([]byte(`<log:answers xmlns:log="` + protocol.LogNS + `"><log:answer><log:variable name="S">a&#13;b</log:variable></log:answer></log:answers>`))
	f.Add([]byte(`<log:answers xmlns:log="` + protocol.LogNS + `" xmlns:p="a&amp;b&quot;c"><log:answer><log:result><p:x/></log:result></log:answer></log:answers>`))

	f.Fuzz(func(t *testing.T, data []byte) {
		doc, err := xmltree.Parse(bytes.NewReader(data))
		if err != nil {
			return
		}
		a, err := protocol.DecodeAnswers(doc)
		if err != nil {
			return
		}
		wire := protocol.EncodeAnswers(a).String()
		doc2, err := xmltree.ParseString(wire)
		if err != nil {
			t.Fatalf("re-encoded answer does not parse: %v\n%s", err, wire)
		}
		b, err := protocol.DecodeAnswers(doc2)
		if err != nil {
			t.Fatalf("re-encoded answer does not decode: %v\n%s", err, wire)
		}
		if a.RuleID != b.RuleID || a.Component != b.Component || a.Tenant != b.Tenant {
			t.Fatalf("rule/component/tenant %q/%q/%q came back as %q/%q/%q\n%s",
				a.RuleID, a.Component, a.Tenant, b.RuleID, b.Component, b.Tenant, wire)
		}
		if len(a.Rows) != len(b.Rows) {
			t.Fatalf("%d rows came back as %d\n%s", len(a.Rows), len(b.Rows), wire)
		}
		for i := range a.Rows {
			if !sameValues(a.Rows[i].Tuple, b.Rows[i].Tuple) {
				t.Fatalf("row %d tuple %v came back as %v\n%s", i, a.Rows[i].Tuple, b.Rows[i].Tuple, wire)
			}
			ra, rb := a.Rows[i].Results, b.Rows[i].Results
			if len(ra) != len(rb) {
				t.Fatalf("row %d: %d results came back as %d\n%s", i, len(ra), len(rb), wire)
			}
			for j := range ra {
				if !sameValue(ra[j], rb[j]) {
					t.Fatalf("row %d result %d %v came back as %v\n%s", i, j, ra[j], rb[j], wire)
				}
			}
		}
	})
}

// sameValues reports whether two tuples bind the same variables to the
// same values (sameValue).
func sameValues(a, b bindings.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		w, ok := b[k]
		if !ok || !sameValue(v, w) {
			return false
		}
	}
	return true
}

// sameValue: same kind and Equal; scalars also render the same text, which
// Equal alone does not require of numeric strings ("1" ≡ " 1").
func sameValue(v, w bindings.Value) bool {
	return v.Kind() == w.Kind() && v.Equal(w) && (v.Kind() == bindings.XML || v.AsString() == w.AsString())
}
