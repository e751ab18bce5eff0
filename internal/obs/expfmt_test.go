package obs

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// scrapeRegistry builds a small registry and returns its exposition text.
func scrapeRegistry(t *testing.T) string {
	t.Helper()
	r := NewRegistry()
	r.Counter("jobs_total", "Jobs processed.").Add(7)
	r.CounterVec("errs_total", "Errors.", "kind").With(`we"ird\`).Add(2)
	r.Gauge("queue_depth", "Depth.").Set(3.5)
	h := r.HistogramVec("lat_seconds", "Latency.", []float64{0.1, 1}, "stage")
	h.With("admit").Observe(0.05)
	h.With("admit").Observe(0.5)
	h.With("act").Observe(5) // overflow bucket
	var b bytes.Buffer
	r.WritePrometheus(&b)
	return b.String()
}

func TestParseExpositionRoundTrip(t *testing.T) {
	text := scrapeRegistry(t)
	e, err := ParseExposition(strings.NewReader(text))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if v, ok := e.Value("jobs_total", nil); !ok || v != 7 {
		t.Fatalf("jobs_total = %v,%v want 7,true", v, ok)
	}
	if v, ok := e.Value("errs_total", map[string]string{"kind": `we"ird\`}); !ok || v != 2 {
		t.Fatalf("escaped label lookup = %v,%v", v, ok)
	}
	if v, ok := e.Value("queue_depth", nil); !ok || v != 3.5 {
		t.Fatalf("queue_depth = %v,%v", v, ok)
	}
	f := e.Family("lat_seconds")
	if f == nil || f.Type != "histogram" {
		t.Fatalf("lat_seconds family missing or untyped: %+v", f)
	}
	// Round-trip must parse again and preserve values.
	var out bytes.Buffer
	e.WritePrometheus(&out)
	if _, err := ParseExposition(bytes.NewReader(out.Bytes())); err != nil {
		t.Fatalf("round-tripped exposition does not parse: %v", err)
	}
	e2, err := ParseExposition(&out)
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if v, ok := e2.Value("errs_total", map[string]string{"kind": `we"ird\`}); !ok || v != 2 {
		t.Fatalf("escaped label did not survive round trip: %v,%v", v, ok)
	}
}

func TestParseExpositionAccepts(t *testing.T) {
	good := strings.Join([]string{
		`# HELP x_total A counter.`,
		`# TYPE x_total counter`,
		`x_total 7`,
		`# TYPE lat_seconds histogram`,
		`lat_seconds_bucket{le="0.1"} 3`,
		`lat_seconds_bucket{le="+Inf"} 5`,
		`lat_seconds_sum 0.42`,
		`lat_seconds_count 5`,
		`g{a="x",b="y y"} -1.5e3`,
		`ts_metric 1 1700000000000`,
		`nan_metric NaN`,
		`esc{v="a\\b\"c\nd"} 1`,
		``,
	}, "\n")
	if _, err := ParseExposition(strings.NewReader(good)); err != nil {
		t.Errorf("valid exposition rejected: %v", err)
	}
}

func TestParseExpositionRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"1bad_name 3\n",
		"m{le=\"0.1} 3\n",
		"m not-a-number\n",
		"# TYPE m histogram\n# TYPE m histogram\nm_count 1\n",
		"m{x=\"a\",x=\"b\"} 1\n",
	} {
		if _, err := ParseExposition(strings.NewReader(bad)); err == nil {
			t.Errorf("ParseExposition accepted %q", bad)
		}
	}
}

// TestLintExpositionRejects: ParseExposition, the one checker of the
// text format that scrapes are linted with, rejects a line that breaks
// any one of the format's grammar rules.
func TestLintExpositionRejects(t *testing.T) {
	cases := map[string]string{
		"bad metric name":   `1bad 7`,
		"bad label name":    `m{1x="v"} 7`,
		"unquoted value":    `m{a=v} 7`,
		"unterminated":      `m{a="v} 7`,
		"duplicate label":   `m{a="1",a="2"} 7`,
		"raw quote":         `m{a="x"y"} 7`,
		"invalid escape":    `m{a="x\t"} 7`,
		"trailing slash":    `m{a="x\"} 7`,
		"no value":          `m{a="v"}`,
		"garbage value":     `m seven`,
		"bad timestamp":     `m 7 soon`,
		"unknown type":      "# TYPE m speedometer",
		"duplicate TYPE":    "# TYPE m counter\n# TYPE m gauge",
		"malformed TYPE":    "# TYPE m",
		"help bad name":     "# HELP 1bad text",
		"missing separator": `m{a="v" b="w"} 7`,
	}
	for name, in := range cases {
		if _, err := ParseExposition(strings.NewReader(in)); err == nil {
			t.Errorf("%s: ParseExposition accepted %q", name, in)
		}
	}
}

func TestAddLabelAndMergeLintClean(t *testing.T) {
	a, err := ParseExposition(strings.NewReader(scrapeRegistry(t)))
	if err != nil {
		t.Fatalf("parse a: %v", err)
	}
	b, err := ParseExposition(strings.NewReader(scrapeRegistry(t)))
	if err != nil {
		t.Fatalf("parse b: %v", err)
	}
	a.AddLabel("node", "n1")
	b.AddLabel("node", "n2")
	merged := MergeExpositions(a, b)
	var out bytes.Buffer
	merged.WritePrometheus(&out)
	if _, err := ParseExposition(bytes.NewReader(out.Bytes())); err != nil {
		t.Fatalf("merged exposition does not parse:\n%s\nerr: %v", out.String(), err)
	}
	nodes := merged.LabelValues("node")
	if len(nodes) != 2 || nodes[0] != "n1" || nodes[1] != "n2" {
		t.Fatalf("LabelValues(node) = %v", nodes)
	}
	if got := merged.Sum("jobs_total", nil); got != 14 {
		t.Fatalf("merged jobs_total sum = %v want 14", got)
	}
	if v, ok := merged.Value("jobs_total", map[string]string{"node": "n2"}); !ok || v != 7 {
		t.Fatalf("per-node value = %v,%v", v, ok)
	}
	// AddLabel must replace, not duplicate, an existing label.
	a.AddLabel("node", "n9")
	if v, ok := a.Value("jobs_total", map[string]string{"node": "n9"}); !ok || v != 7 {
		t.Fatalf("relabel: %v,%v", v, ok)
	}
	var relint bytes.Buffer
	a.WritePrometheus(&relint)
	if _, err := ParseExposition(&relint); err != nil {
		t.Fatalf("relabelled exposition does not parse: %v", err)
	}
}

func TestHistogramDistQuantileAndSub(t *testing.T) {
	e, err := ParseExposition(strings.NewReader(scrapeRegistry(t)))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	all := e.HistogramDist("lat_seconds", nil)
	if all.Count != 3 {
		t.Fatalf("count = %d want 3", all.Count)
	}
	if math.Abs(all.Sum-5.55) > 1e-9 {
		t.Fatalf("sum = %v want 5.55", all.Sum)
	}
	// Overflow observations clamp to the top finite bound.
	if p99 := all.Quantile(0.99); p99 != 1 {
		t.Fatalf("p99 = %v want clamp to 1", p99)
	}
	admit := e.HistogramDist("lat_seconds", map[string]string{"stage": "admit"})
	if admit.Count != 2 {
		t.Fatalf("admit count = %d want 2", admit.Count)
	}
	// Delta vs a baseline: same layout, counts subtract, never negative.
	delta := all.Sub(admit)
	if delta.Count != 1 || math.Abs(delta.Sum-5) > 1e-9 {
		t.Fatalf("delta = count %d sum %v", delta.Count, delta.Sum)
	}
	// Mismatched layouts leave the receiver untouched.
	other := &BucketDist{Bounds: []float64{9}, Cum: []int64{1}, Count: 1}
	if got := all.Sub(other); got.Count != all.Count {
		t.Fatalf("mismatched Sub changed the receiver: %+v", got)
	}
	empty := (&Exposition{}).HistogramDist("nope", nil)
	if empty.Quantile(0.5) != 0 || empty.Mean() != 0 {
		t.Fatalf("empty dist should yield zeros")
	}
}

// TestRegistryExpositionEscapingRegression is the label-escaping
// regression test: a registry fed hostile label values (quotes,
// backslashes, newlines) must emit an exposition every line of which is
// machine-parseable, with the hostile values escaped exactly as the
// format prescribes.
func TestRegistryExpositionEscapingRegression(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("hostile_total", `help with "quotes" and \slashes`, "v").
		With("quote\"backslash\\newline\nend").Inc()
	r.GaugeVec("hostile_gauge", "", "a", "b").With("plain", "").Set(2)
	r.HistogramVec("hostile_seconds", "", []float64{0.1}, "v").With(`x"y`).Observe(0.05)

	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	exposition := buf.String()

	if _, err := ParseExposition(strings.NewReader(exposition)); err != nil {
		t.Fatalf("registry exposition does not parse: %v\n%s", err, exposition)
	}

	// Line-by-line: the hostile sample lines must carry the exact escape
	// sequences, and every line must be comment, blank, or name{...} value.
	wantLines := []string{
		`hostile_total{v="quote\"backslash\\newline\nend"} 1`,
		`hostile_gauge{a="plain",b=""} 2`,
		`hostile_seconds_bucket{v="x\"y",le="0.1"} 1`,
		`hostile_seconds_bucket{v="x\"y",le="+Inf"} 1`,
		`hostile_seconds_count{v="x\"y"} 1`,
	}
	for _, want := range wantLines {
		if !strings.Contains(exposition, want+"\n") {
			t.Errorf("exposition missing line %q\ngot:\n%s", want, exposition)
		}
	}
	for i, line := range strings.Split(exposition, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if strings.ContainsAny(line, "\r") || strings.Count(line, " ") < 1 {
			t.Errorf("line %d not of the form name value: %q", i+1, line)
		}
	}
}
