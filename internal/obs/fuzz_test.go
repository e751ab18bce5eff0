package obs

import (
	"bytes"
	"testing"
)

// FuzzParseExposition feeds the exposition parser — the reader cluster
// federation runs on every peer's /metrics — arbitrary text. It must never
// panic, and whatever it accepts must print as text it accepts again and
// reach a fixed point after one print: parse → print → parse → print
// yields the same text twice.
func FuzzParseExposition(f *testing.F) {
	r := NewRegistry()
	r.Counter("jobs_total", "Jobs processed.").Add(7)
	r.CounterVec("errs_total", "Errors with a \\ and\na newline.", "kind").With(`we"ird\` + "\n").Add(2)
	r.Gauge("queue_depth", "Depth.").Set(-3.5)
	h := r.HistogramVec("lat_seconds", "Latency.", []float64{0.1, 1}, "stage")
	h.With("admit").Observe(0.05)
	h.With("act").Observe(5)
	var reg bytes.Buffer
	r.WritePrometheus(&reg)
	f.Add(reg.String())
	for _, s := range []string{
		"",
		"# HELP m Help.\n# TYPE m counter\nm 1\n",
		"m{a=\"x\",b=\"y\"} 1.5e3 1700000000000\n",
		"# TYPE g gauge\ng NaN\ng{x=\"1\"} +Inf\ng{x=\"2\"} -Inf\n",
		"# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_sum 3\nh_count 2\n",
		"# TYPE s summary\ns{quantile=\"0.5\"} 1\ns_sum 1\ns_count 1\n",
		"# a free comment\n\nuntyped_metric 0\n",
		"1bad_name 3\n",
		"m{le=\"0.1} 3\n",
		"m{x=\"a\",x=\"b\"} 1\n",
	} {
		f.Add(s)
	}

	f.Fuzz(func(t *testing.T, text string) {
		e, err := ParseExposition(bytes.NewReader([]byte(text)))
		if err != nil {
			return
		}
		var first bytes.Buffer
		e.WritePrometheus(&first)
		e2, err := ParseExposition(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("printed exposition does not parse: %v\ninput:\n%q\nprinted:\n%q", err, text, first.String())
		}
		var second bytes.Buffer
		e2.WritePrometheus(&second)
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("print is not stable under reparse\ninput:\n%q\nfirst:\n%q\nsecond:\n%q", text, first.String(), second.String())
		}
	})
}
