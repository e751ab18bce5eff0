package protocol

import (
	"testing"
	"time"

	"repro/internal/bindings"
	"repro/internal/xmltree"
)

// TestAnswerClone: the clone must share no mutable memory with the
// original — rows, tuples, values (XML node trees included), results and
// trace spans. Consumers of one answer depend on this isolation.
func TestAnswerClone(t *testing.T) {
	frag := xmltree.MustParse(`<car><model>VW Golf</model></car>`).Root()
	orig := &Answer{
		RuleID:      "travel",
		Component:   "query[1]",
		TraceID:     "travel#1",
		TraceParent: "event[1]",
		Trace:       []TraceSpan{{Phase: "evaluate", Duration: time.Millisecond}},
		Rows: []AnswerRow{{
			Tuple: bindings.Tuple{
				"Car": bindings.Fragment(frag),
				"X":   bindings.Str("1"),
			},
			Results: []bindings.Value{bindings.Fragment(frag.Clone()), bindings.Str("r")},
		}},
	}
	c := orig.Clone()

	// Scalar fields copied.
	if c.RuleID != orig.RuleID || c.Component != orig.Component || c.TraceID != orig.TraceID {
		t.Fatal("clone lost scalar fields")
	}
	// Mutate the clone in every aliasing-prone spot.
	c.Rows[0].Tuple["Car"].Node().Children = nil
	c.Rows[0].Tuple["New"] = bindings.Str("junk")
	c.Rows[0].Results[0].Node().Children = nil
	c.Rows[0].Results = append(c.Rows[0].Results[:1], bindings.Str("other"))
	c.Trace[0].Phase = "mutated"
	c.Rows = append(c.Rows, AnswerRow{})

	if got := orig.Rows[0].Tuple["Car"].Node().TextContent(); got != "VW Golf" {
		t.Errorf("original tuple fragment text = %q after clone mutation, want %q", got, "VW Golf")
	}
	if _, ok := orig.Rows[0].Tuple["New"]; ok {
		t.Error("tuple map aliased: clone's added variable visible in original")
	}
	if got := orig.Rows[0].Results[0].Node().TextContent(); got != "VW Golf" {
		t.Errorf("original result fragment text = %q after clone mutation, want %q", got, "VW Golf")
	}
	if got := orig.Rows[0].Results[1].AsString(); got != "r" {
		t.Errorf("original results slice aliased: second result = %q, want %q", got, "r")
	}
	if orig.Trace[0].Phase != "evaluate" {
		t.Error("trace spans aliased")
	}
	if len(orig.Rows) != 1 {
		t.Error("rows slice aliased")
	}

	// Nil handling.
	var nilAnswer *Answer
	if nilAnswer.Clone() != nil {
		t.Error("nil answer should clone to nil")
	}
	empty := (&Answer{RuleID: "r"}).Clone()
	if empty.RuleID != "r" || empty.Rows != nil || empty.Trace != nil {
		t.Error("empty answer clone should stay empty")
	}
}
