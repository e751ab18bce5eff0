package obs

import (
	"fmt"
	"sync"
	"testing"
)

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

// TestExemplarConcurrent: observers and readers of one histogram's
// exemplar from several goroutines never see a value paired with another
// observation's trace id, and after the first an observation allocates
// nothing.
func TestExemplarConcurrent(t *testing.T) {
	h := NewRegistry().Histogram("h_ex_conc", "", []float64{1})
	ids := make([]string, 8)
	for i := range ids {
		ids[i] = fmt.Sprintf("rule#%d", i)
	}
	var wg sync.WaitGroup
	for g := range ids {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				h.ObserveExemplar(float64(g), ids[g])
				if ex, ok := h.Exemplar(); ok && ex.TraceID != ids[int(ex.Value)] {
					t.Errorf("exemplar %+v pairs a value with another observation's id", ex)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if n := testing.AllocsPerRun(100, func() { h.ObserveExemplar(0.5, ids[0]) }); n != 0 {
		t.Errorf("ObserveExemplar allocated %v times", n)
	}
}
