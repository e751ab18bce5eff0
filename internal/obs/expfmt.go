package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// This file is the read side of the exposition format: a parser and
// sample model for Prometheus text scrapes (format 0.0.4). The cluster
// layer uses it to build /cluster/metrics — each peer's /metrics is
// parsed, tagged with a node label and merged into one exposition that
// parses again (naive concatenation would duplicate TYPE comments, which
// ParseExposition rejects) — and `ecactl cluster top` uses it to delta
// histograms and compute quantiles from scrapes without a Prometheus
// client dependency.

// LabelPair is one name="value" pair on a sample, in exposition order.
type LabelPair struct {
	Name  string
	Value string
}

// Sample is a single exposition line: a sample name (including any
// _bucket/_sum/_count suffix), its labels and its value.
type Sample struct {
	Name   string
	Labels []LabelPair
	Value  float64
}

// Label returns the value of the named label and whether it is present.
func (s *Sample) Label(name string) (string, bool) {
	for _, lp := range s.Labels {
		if lp.Name == name {
			return lp.Value, true
		}
	}
	return "", false
}

// matches reports whether every want label is present with that exact
// value (subset match; extra labels on the sample are fine).
func (s *Sample) matches(want map[string]string) bool {
	for k, v := range want {
		got, ok := s.Label(k)
		if !ok || got != v {
			return false
		}
	}
	return true
}

// MetricFamily groups the samples of one metric name with its HELP/TYPE
// metadata. Type is empty for samples that appeared without a TYPE
// declaration.
type MetricFamily struct {
	Name    string
	Help    string
	Type    string
	Samples []Sample
}

// Exposition is a parsed scrape: metric families in first-seen order.
type Exposition struct {
	Families []*MetricFamily

	byName map[string]*MetricFamily
}

// ParseExposition parses a Prometheus text exposition: well-formed
// HELP/TYPE comments, valid metric and label names, properly quoted and
// escaped label values, parseable sample values. It is strict about
// names, quoting and escapes, so anything it accepts prints through
// WritePrometheus as an exposition it accepts again; the tests use it to
// prove /metrics stays machine-parseable even with hostile label values.
// Optional sample timestamps are parsed and dropped.
func ParseExposition(r io.Reader) (*Exposition, error) {
	e := &Exposition{byName: map[string]*MetricFamily{}}
	typed := map[string]string{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if err := e.parseComment(line, typed); err != nil {
				return nil, fmt.Errorf("line %d: %w", lineNo, err)
			}
			continue
		}
		if err := e.parseSample(line, typed); err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("exposition read: %w", err)
	}
	return e, nil
}

func (e *Exposition) family(name string) *MetricFamily {
	if f, ok := e.byName[name]; ok {
		return f
	}
	f := &MetricFamily{Name: name}
	e.byName[name] = f
	e.Families = append(e.Families, f)
	return f
}

func (e *Exposition) parseComment(line string, typed map[string]string) error {
	fields := strings.SplitN(line, " ", 4)
	if len(fields) < 2 {
		return nil // bare comment, dropped
	}
	switch fields[1] {
	case "HELP":
		if len(fields) < 3 || !validMetricName(fields[2]) {
			return fmt.Errorf("malformed HELP comment %q", line)
		}
		f := e.family(fields[2])
		if len(fields) == 4 {
			if err := checkEscapes(fields[3], false); err != nil {
				return fmt.Errorf("HELP text for %s: %w", fields[2], err)
			}
			f.Help = unescapeText(fields[3])
		}
	case "TYPE":
		if len(fields) != 4 || !validMetricName(fields[2]) {
			return fmt.Errorf("malformed TYPE comment %q", line)
		}
		switch fields[3] {
		case "counter", "gauge", "histogram", "summary", "untyped":
		default:
			return fmt.Errorf("unknown metric type %q for %s", fields[3], fields[2])
		}
		if _, dup := typed[fields[2]]; dup {
			return fmt.Errorf("duplicate TYPE for %s", fields[2])
		}
		typed[fields[2]] = fields[3]
		e.family(fields[2]).Type = fields[3]
	}
	return nil
}

func (e *Exposition) parseSample(line string, typed map[string]string) error {
	name, rest := splitName(line)
	if !validMetricName(name) {
		return fmt.Errorf("invalid metric name in %q", line)
	}
	s := Sample{Name: name}
	if strings.HasPrefix(rest, "{") {
		var err error
		s.Labels, rest, err = parseLabels(rest)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	parts := strings.Fields(rest)
	if len(parts) < 1 || len(parts) > 2 {
		return fmt.Errorf("%s: expected value [timestamp], got %q", name, rest)
	}
	v, err := parseSampleValue(parts[0])
	if err != nil {
		return fmt.Errorf("%s: unparseable sample value %q", name, parts[0])
	}
	if len(parts) == 2 {
		if _, err := strconv.ParseInt(parts[1], 10, 64); err != nil {
			return fmt.Errorf("%s: bad timestamp %q", name, parts[1])
		}
	}
	s.Value = v
	fam := name
	if base, ok := baseFamily(name, typed); ok {
		fam = base
	}
	f := e.family(fam)
	f.Samples = append(f.Samples, s)
	return nil
}

// parseLabels consumes a {name="value",...} section, returning the
// decoded pairs and the rest of the line, enforcing quoting, escape
// sequences and unique label names.
func parseLabels(s string) (pairs []LabelPair, rest string, err error) {
	s = s[1:] // consume '{'
	seen := map[string]bool{}
	for {
		s = strings.TrimLeft(s, " ")
		if strings.HasPrefix(s, "}") {
			return pairs, s[1:], nil
		}
		eq := strings.IndexByte(s, '=')
		if eq < 0 {
			return nil, "", fmt.Errorf("unterminated label section")
		}
		lname := strings.TrimSpace(s[:eq])
		if !validLabelName(lname) {
			return nil, "", fmt.Errorf("invalid label name %q", lname)
		}
		if seen[lname] {
			return nil, "", fmt.Errorf("duplicate label %q", lname)
		}
		seen[lname] = true
		s = s[eq+1:]
		if !strings.HasPrefix(s, `"`) {
			return nil, "", fmt.Errorf("label %s: value not quoted", lname)
		}
		val, remainder, ok := scanQuoted(s)
		if !ok {
			return nil, "", fmt.Errorf("label %s: unterminated quoted value", lname)
		}
		if err := checkEscapes(val, true); err != nil {
			return nil, "", fmt.Errorf("label %s: %w", lname, err)
		}
		pairs = append(pairs, LabelPair{Name: lname, Value: unescapeText(val)})
		s = strings.TrimLeft(remainder, " ")
		switch {
		case strings.HasPrefix(s, ","):
			s = s[1:]
		case strings.HasPrefix(s, "}"):
		default:
			return nil, "", fmt.Errorf("label %s: expected , or } after value", lname)
		}
	}
}

func parseSampleValue(s string) (float64, error) {
	switch s {
	case "NaN":
		return math.NaN(), nil
	case "+Inf", "Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	}
	return strconv.ParseFloat(s, 64)
}

func unescapeText(s string) string {
	if !strings.Contains(s, `\`) {
		return s
	}
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); i++ {
		if s[i] == '\\' && i+1 < len(s) {
			i++
			switch s[i] {
			case 'n':
				b.WriteByte('\n')
			case '\\', '"':
				b.WriteByte(s[i])
			default:
				b.WriteByte('\\')
				b.WriteByte(s[i])
			}
			continue
		}
		b.WriteByte(s[i])
	}
	return b.String()
}

// AddLabel stamps every sample with an extra label (replacing any
// existing label of the same name). New labels are prepended so
// histogram `le` labels keep their conventional trailing position.
func (e *Exposition) AddLabel(name, value string) {
	if e == nil {
		return
	}
	for _, f := range e.Families {
		for i := range f.Samples {
			s := &f.Samples[i]
			replaced := false
			for j := range s.Labels {
				if s.Labels[j].Name == name {
					s.Labels[j].Value = value
					replaced = true
					break
				}
			}
			if !replaced {
				s.Labels = append([]LabelPair{{Name: name, Value: value}}, s.Labels...)
			}
		}
	}
}

// MergeExpositions combines scrapes into one exposition, unioning
// samples family-by-family. The first part to declare a family's
// HELP/TYPE wins; later conflicting declarations are dropped rather
// than duplicated, keeping the merge parseable. Callers are expected
// to have disambiguated same-name series first (e.g. via AddLabel).
func MergeExpositions(parts ...*Exposition) *Exposition {
	out := &Exposition{byName: map[string]*MetricFamily{}}
	for _, p := range parts {
		if p == nil {
			continue
		}
		for _, f := range p.Families {
			m := out.family(f.Name)
			if m.Help == "" {
				m.Help = f.Help
			}
			if m.Type == "" {
				m.Type = f.Type
			}
			m.Samples = append(m.Samples, f.Samples...)
		}
	}
	return out
}

// WritePrometheus renders the exposition in text format 0.0.4, families
// sorted by name for a stable scrape. Families without samples are
// skipped (a HELP/TYPE comment with no series is pointless noise).
func (e *Exposition) WritePrometheus(w io.Writer) {
	if e == nil {
		return
	}
	fams := make([]*MetricFamily, len(e.Families))
	copy(fams, e.Families)
	sort.Slice(fams, func(i, j int) bool { return fams[i].Name < fams[j].Name })
	for _, f := range fams {
		if len(f.Samples) == 0 {
			continue
		}
		if f.Help != "" {
			fmt.Fprintf(w, "# HELP %s %s\n", f.Name, escapeHelp(f.Help))
		}
		if f.Type != "" {
			fmt.Fprintf(w, "# TYPE %s %s\n", f.Name, f.Type)
		}
		for _, s := range f.Samples {
			names := make([]string, len(s.Labels))
			values := make([]string, len(s.Labels))
			for i, lp := range s.Labels {
				names[i] = lp.Name
				values[i] = lp.Value
			}
			fmt.Fprintf(w, "%s%s %s\n", s.Name, formatLabels(names, values), formatFloat(s.Value))
		}
	}
}

// Family returns the named family, or nil if absent.
func (e *Exposition) Family(name string) *MetricFamily {
	if e == nil {
		return nil
	}
	return e.byName[name]
}

// Value returns the value of the first sample with this exact name whose
// labels include every pair in labels (nil matches anything).
func (e *Exposition) Value(name string, labels map[string]string) (float64, bool) {
	if e == nil {
		return 0, false
	}
	for _, f := range e.Families {
		for i := range f.Samples {
			s := &f.Samples[i]
			if s.Name == name && s.matches(labels) {
				return s.Value, true
			}
		}
	}
	return 0, false
}

// Sum adds up every sample with this exact name whose labels include
// every pair in labels — e.g. the total of a counter across all its
// label values.
func (e *Exposition) Sum(name string, labels map[string]string) float64 {
	if e == nil {
		return 0
	}
	total := 0.0
	for _, f := range e.Families {
		for i := range f.Samples {
			s := &f.Samples[i]
			if s.Name == name && s.matches(labels) {
				total += s.Value
			}
		}
	}
	return total
}

// LabelValues returns the distinct values of a label across all
// samples, sorted — e.g. the node ids present in a federated scrape.
func (e *Exposition) LabelValues(label string) []string {
	if e == nil {
		return nil
	}
	seen := map[string]bool{}
	for _, f := range e.Families {
		for i := range f.Samples {
			if v, ok := f.Samples[i].Label(label); ok && !seen[v] {
				seen[v] = true
			}
		}
	}
	out := make([]string, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// --- scraped histograms ---------------------------------------------------------------

// BucketDist is a histogram distribution reassembled from scraped
// _bucket/_sum/_count samples, aggregated across every matching series.
// It supports the two operations `ecactl cluster top` needs: subtracting
// a baseline scrape (Sub) and estimating quantiles (Quantile).
type BucketDist struct {
	Bounds []float64 // ascending upper bounds; +Inf last when scraped
	Cum    []int64   // cumulative counts per bound
	Count  int64
	Sum    float64
}

// HistogramDist collects the distribution of the named histogram from
// the exposition, summing every series whose labels include the given
// pairs. Returns an empty (non-nil) distribution when nothing matches.
func (e *Exposition) HistogramDist(name string, labels map[string]string) *BucketDist {
	d := &BucketDist{}
	if e == nil {
		return d
	}
	byBound := map[float64]int64{}
	for _, f := range e.Families {
		for i := range f.Samples {
			s := &f.Samples[i]
			if !s.matches(labels) {
				continue
			}
			switch s.Name {
			case name + "_bucket":
				le, ok := s.Label("le")
				if !ok {
					continue
				}
				b, err := parseSampleValue(le)
				if err != nil {
					continue
				}
				byBound[b] += int64(s.Value)
			case name + "_sum":
				d.Sum += s.Value
			case name + "_count":
				d.Count += int64(s.Value)
			}
		}
	}
	d.Bounds = make([]float64, 0, len(byBound))
	for b := range byBound {
		d.Bounds = append(d.Bounds, b)
	}
	sort.Float64s(d.Bounds)
	d.Cum = make([]int64, len(d.Bounds))
	for i, b := range d.Bounds {
		d.Cum[i] = byBound[b]
	}
	return d
}

// Sub returns the distribution of observations made after prev was
// scraped (this minus prev, clamped at zero). If the bucket layouts
// differ the receiver is returned unchanged.
func (d *BucketDist) Sub(prev *BucketDist) *BucketDist {
	if d == nil {
		return nil
	}
	if prev == nil || len(prev.Bounds) == 0 {
		return d
	}
	if len(prev.Bounds) != len(d.Bounds) {
		return d
	}
	for i := range d.Bounds {
		if d.Bounds[i] != prev.Bounds[i] {
			return d
		}
	}
	out := &BucketDist{
		Bounds: append([]float64(nil), d.Bounds...),
		Cum:    make([]int64, len(d.Cum)),
		Count:  max64(0, d.Count-prev.Count),
		Sum:    math.Max(0, d.Sum-prev.Sum),
	}
	for i := range d.Cum {
		out.Cum[i] = max64(0, d.Cum[i]-prev.Cum[i])
	}
	return out
}

// Quantile estimates the q-quantile (q clamped to [0,1]) by linear
// interpolation within the containing bucket: overflow observations clamp
// to the largest finite bound, and an empty distribution yields 0.
func (d *BucketDist) Quantile(q float64) float64 {
	if d == nil || d.Count == 0 || len(d.Bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(d.Count)
	cum := 0.0
	prevCum := int64(0)
	topFinite := 0.0
	for _, b := range d.Bounds {
		if !math.IsInf(b, 1) {
			topFinite = b
		}
	}
	for i, b := range d.Bounds {
		n := float64(d.Cum[i] - prevCum)
		prevCum = d.Cum[i]
		if cum+n >= rank {
			if math.IsInf(b, 1) {
				return topFinite
			}
			lo := 0.0
			if i > 0 {
				lo = d.Bounds[i-1]
			}
			if n == 0 {
				return b
			}
			frac := (rank - cum) / n
			return lo + (b-lo)*frac
		}
		cum += n
	}
	return topFinite
}

// Mean returns Sum/Count, or 0 when empty.
func (d *BucketDist) Mean() float64 {
	if d == nil || d.Count == 0 {
		return 0
	}
	return d.Sum / float64(d.Count)
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// scanQuoted consumes a double-quoted section honoring backslash escapes;
// it returns the raw (still-escaped) content and the remainder.
func scanQuoted(s string) (val, rest string, ok bool) {
	for i := 1; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++ // skip escaped char (validity checked by checkEscapes)
		case '"':
			return s[1:i], s[i+1:], true
		case '\n':
			return "", "", false
		}
	}
	return "", "", false
}

// checkEscapes verifies that raw escaped text uses only the escape
// sequences the format allows (\\ and \n everywhere, plus \" in label
// values) and contains no raw newline or — for label values — raw quote.
func checkEscapes(s string, labelValue bool) error {
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\n':
			return fmt.Errorf("raw newline in %q", s)
		case '"':
			if labelValue {
				return fmt.Errorf("unescaped quote in %q", s)
			}
		case '\\':
			if i+1 >= len(s) {
				return fmt.Errorf("trailing backslash in %q", s)
			}
			i++
			switch s[i] {
			case '\\', 'n':
			case '"':
				if !labelValue {
					return fmt.Errorf(`\" escape outside a label value in %q`, s)
				}
			default:
				return fmt.Errorf("invalid escape \\%c in %q", s[i], s)
			}
		}
	}
	return nil
}

// splitName splits a sample line at the end of the metric name.
func splitName(line string) (name, rest string) {
	for i := 0; i < len(line); i++ {
		c := line[i]
		if c == '{' || c == ' ' {
			return line[:i], line[i:]
		}
	}
	return line, ""
}

// baseFamily resolves a sample name to its declared family, stripping the
// histogram/summary suffixes.
func baseFamily(name string, typed map[string]string) (string, bool) {
	if _, ok := typed[name]; ok {
		return name, true
	}
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, suffix)
		if base != name {
			if _, ok := typed[base]; ok {
				return base, true
			}
		}
	}
	return "", false
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

func validLabelName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}
