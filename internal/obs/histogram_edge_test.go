package obs

import "testing"

func TestHistogramExemplar(t *testing.T) {
	h := NewRegistry().Histogram("h_ex", "", []float64{1})
	if _, ok := h.Exemplar(); ok {
		t.Fatalf("fresh histogram should have no exemplar")
	}
	h.ObserveExemplar(0.5, "rule#1")
	h.ObserveExemplar(0.7, "rule#2")
	h.ObserveExemplar(0.9, "") // empty trace id: observed, no exemplar stored
	ex, ok := h.Exemplar()
	if !ok || ex.TraceID != "rule#2" || ex.Value != 0.7 {
		t.Fatalf("exemplar = %+v, %v", ex, ok)
	}
	if h.Count() != 3 {
		t.Fatalf("count = %d want 3 (empty-id observation still counted)", h.Count())
	}
	var nilH *Histogram
	nilH.ObserveExemplar(1, "x") // nil-safe
	if _, ok := nilH.Exemplar(); ok {
		t.Fatalf("nil histogram exemplar")
	}
}
