package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestRuntimeSamplerPopulatesGauges(t *testing.T) {
	r := NewRegistry()
	stop := StartRuntimeSampler(r, time.Hour) // immediate sample only
	defer stop()

	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	out := buf.String()
	for _, name := range []string{"go_goroutines", "go_heap_inuse_bytes", "go_heap_objects", "go_gc_pause_seconds_total", "go_gcs_total"} {
		if !strings.Contains(out, name+" ") {
			t.Errorf("exposition missing %s:\n%s", name, out)
		}
	}
	if g := r.Gauge("go_goroutines", ""); g.Value() < 1 {
		t.Errorf("go_goroutines = %v, want ≥ 1", g.Value())
	}
	if _, err := ParseExposition(strings.NewReader(out)); err != nil {
		t.Errorf("runtime gauges break exposition lint: %v", err)
	}

	stop()
	stop() // idempotent
	if s := StartRuntimeSampler(nil, time.Second); s == nil {
		t.Error("nil-registry sampler should return a no-op stop")
	} else {
		s()
	}
}
