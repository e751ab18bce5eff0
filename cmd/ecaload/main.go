// Command ecaload drives an open-loop ingest load against a running ecad
// daemon and reports the admit→action SLO from the daemon's own /metrics
// exposition:
//
//	ecaload -s http://127.0.0.1:8080 -rate 200 -producers 4 -duration 10s \
//	        -json BENCH_ingest.json
//
// N producers POST travel:booking events at a fixed schedule (interval =
// producers/rate), independent of how fast the daemon answers — the
// open-loop discipline that surfaces queueing delay instead of hiding it
// behind client back-off. A producer that falls behind its schedule drops
// the missed ticks rather than bursting to catch up. 429 responses are
// honoured: the shed event is counted and the producer sleeps the
// advertised Retry-After (bounded) before resuming its schedule.
//
// The daemon's /metrics is scraped before the run and again after the
// engine settles; both expositions must pass obs.LintExposition. The
// report is computed from the server-side deltas — events_admitted_total,
// events_shed_total and the event_e2e_seconds histogram (admit→action,
// completed instances only) — so it reflects what the daemon measured,
// not client-side RTTs. When the endpoint serves /cluster/metrics (a
// clustered deployment) that exposition is linted too.
//
// The default event is a booking by "John Doe" to Paris, which completes
// the -travel car-rental rule end to end and therefore exercises every
// lifecycle stage; point -person/-from/-to elsewhere to load a different
// rule set.
//
// With -batch N every POST carries N events as an NDJSON body (one JSON
// string of XML per line, Content-Type application/x-ndjson) admitted by
// the daemon under a single journal fsync and sequencing step. -rate stays
// events/second: the POST schedule slows down by the batch factor, so a
// batched and an unbatched run at the same -rate offer the daemon the same
// event load. -series labels the JSON report so multiple runs can be
// archived side by side; -baseline FILE -min-speedup X fails the run
// (exit 1) unless this run's admitted events/second is at least X times
// the baseline report's — the CI regression gate for batched ingest.
//
// The exit status is non-zero when a lint fails, the daemon admitted
// nothing, no rule instance completed (zero e2e observations), or the
// -min-speedup gate fails.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/domain/travel"
	"repro/internal/obs"
	"repro/internal/protocol"
)

// maxRetryAfter bounds how long a producer honours a 429's Retry-After
// before resuming its schedule, so a misconfigured daemon cannot stall
// the run.
const maxRetryAfter = 2 * time.Second

// Report is the BENCH_ingest.json document: the daemon-side view of one
// ecaload run.
type Report struct {
	Series          string   `json:"series,omitempty"`
	Endpoint        string   `json:"endpoint"`
	TargetRate      float64  `json:"target_rate_per_second"`
	BatchSize       int      `json:"batch_size"`
	Producers       int      `json:"producers"`
	DurationSeconds float64  `json:"duration_seconds"`
	Sent            int64    `json:"sent"`
	Admitted        int64    `json:"admitted"`
	Shed            int64    `json:"shed"`
	ClientErrors    int64    `json:"client_errors"`
	EventsPerSecond float64  `json:"events_per_second"`
	ShedRate        float64  `json:"shed_rate"`
	Latency         *Latency `json:"admit_to_action_latency_seconds"`
	MetricsLint     bool     `json:"metrics_lint_clean"`
	ClusterLint     *bool    `json:"cluster_metrics_lint_clean,omitempty"`
}

// Latency summarises the event_e2e_seconds delta accumulated during the
// run: admission-timestamp to action-ack, as measured by the engine.
type Latency struct {
	Count int64   `json:"count"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
}

func main() {
	var (
		server     = flag.String("s", defaultEndpoint(os.Getenv), "ecad base URL (default honours $ECA_ENDPOINT)")
		rate       = flag.Float64("rate", 100, "target events/second across all producers")
		producers  = flag.Int("producers", 4, "concurrent producer goroutines")
		duration   = flag.Duration("duration", 10*time.Second, "how long to generate load")
		settle     = flag.Duration("settle", 5*time.Second, "how long to wait for in-flight instances to drain after the load stops")
		jsonPath   = flag.String("json", "", "write the run report as JSON to this file (e.g. BENCH_ingest.json)")
		person     = flag.String("person", "John Doe", "booking person attribute")
		from       = flag.String("from", "Munich", "booking from attribute")
		to         = flag.String("to", "Paris", "booking to attribute")
		batch      = flag.Int("batch", 1, "events per POST: 1 posts single XML documents, N>1 posts NDJSON batches")
		series     = flag.String("series", "", "label stamped into the JSON report (e.g. batched, unbatched)")
		baseline   = flag.String("baseline", "", "baseline report JSON to compare admitted events/second against")
		minSpeedup = flag.Float64("min-speedup", 0, "fail unless events/second >= this multiple of the -baseline rate (0 disables the gate)")
	)
	flag.StringVar(&tenantID, "tenant", "", "tenant whose rule space receives the load (empty = daemon default)")
	flag.Parse()
	if *rate <= 0 || *producers <= 0 || *batch < 1 {
		fmt.Fprintln(os.Stderr, "ecaload: -rate, -producers and -batch must be positive")
		os.Exit(2)
	}
	if *minSpeedup > 0 && *baseline == "" {
		fmt.Fprintln(os.Stderr, "ecaload: -min-speedup needs -baseline")
		os.Exit(2)
	}

	rep, err := run(*server, *rate, *producers, *batch, *duration, *settle, *person, *from, *to)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ecaload: %v\n", err)
		os.Exit(1)
	}
	rep.Series = *series
	printSummary(os.Stdout, rep)
	if *jsonPath != "" {
		data, _ := json.MarshalIndent(rep, "", "  ")
		if err := os.WriteFile(*jsonPath, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "ecaload: %v\n", err)
			os.Exit(1)
		}
	}
	ok := healthy(rep)
	if *baseline != "" {
		base, err := baselineRate(*baseline)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ecaload: -baseline: %v\n", err)
			os.Exit(1)
		}
		speedup := rep.EventsPerSecond / base
		fmt.Printf("speedup vs baseline: %.2fx (baseline %.1f events/sec", speedup, base)
		if *minSpeedup > 0 {
			fmt.Printf(", gate >= %.2fx", *minSpeedup)
		}
		fmt.Println(")")
		if *minSpeedup > 0 && speedup < *minSpeedup {
			fmt.Fprintf(os.Stderr, "ecaload: speedup %.2fx below the -min-speedup %.2fx gate\n", speedup, *minSpeedup)
			ok = false
		}
	}
	if !ok {
		os.Exit(1)
	}
}

// baselineRate reads the admitted events/second out of a baseline report:
// either a single Report document or the archived {series: [...]} shape,
// preferring the series labelled "unbatched".
func baselineRate(path string) (float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	var multi struct {
		Series []Report `json:"series"`
	}
	if err := json.Unmarshal(data, &multi); err == nil && len(multi.Series) > 0 {
		for _, r := range multi.Series {
			if r.Series == "unbatched" {
				return positiveRate(r)
			}
		}
		return positiveRate(multi.Series[0])
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return 0, err
	}
	return positiveRate(r)
}

func positiveRate(r Report) (float64, error) {
	if r.EventsPerSecond <= 0 {
		return 0, fmt.Errorf("baseline report has no positive events_per_second")
	}
	return r.EventsPerSecond, nil
}

// tenantID scopes the generated load to one tenant's rule space; empty
// addresses the daemon's default tenant.
var tenantID string

// postEvents posts one event (or NDJSON batch) to the daemon, stamped
// with the selected tenant.
func postEvents(client *http.Client, url, contentType, body string) (*http.Response, error) {
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", contentType)
	if tenantID != "" {
		req.Header.Set(protocol.TenantHeader, tenantID)
	}
	return client.Do(req)
}

// defaultEndpoint mirrors ecactl: $ECA_ENDPOINT when set, the local
// default otherwise.
func defaultEndpoint(getenv func(string) string) string {
	if ep := strings.TrimSpace(getenv("ECA_ENDPOINT")); ep != "" {
		return strings.TrimRight(ep, "/")
	}
	return "http://127.0.0.1:8080"
}

// healthy reports whether the run proved the pipeline end to end: both
// expositions lint-clean, events actually admitted, instances actually
// completed.
func healthy(rep *Report) bool {
	if !rep.MetricsLint || rep.Admitted == 0 || rep.Latency == nil || rep.Latency.Count == 0 {
		return false
	}
	return rep.ClusterLint == nil || *rep.ClusterLint
}

func run(base string, rate float64, producers, batch int, duration, settle time.Duration, person, from, to string) (*Report, error) {
	client := &http.Client{Timeout: 10 * time.Second}
	before, lintBeforeErr, err := scrapeMetrics(client, base)
	if err != nil {
		return nil, fmt.Errorf("pre-run scrape: %w", err)
	}

	event := travel.Booking(person, from, to).String()
	body, contentType := event, "application/xml"
	if batch > 1 {
		// One POST = one NDJSON batch of `batch` events; -rate still counts
		// events, so the POST schedule stretches by the batch factor.
		line, err := json.Marshal(event)
		if err != nil {
			return nil, err
		}
		var b strings.Builder
		for i := 0; i < batch; i++ {
			b.Write(line)
			b.WriteByte('\n')
		}
		body, contentType = b.String(), "application/x-ndjson"
	}
	var sent, shed, clientErrs atomic.Int64
	interval := time.Duration(float64(producers*batch) / rate * float64(time.Second))
	if interval <= 0 {
		interval = time.Nanosecond
	}
	start := time.Now()
	deadline := start.Add(duration)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			// Producers start phase-shifted so the aggregate schedule is
			// evenly spaced, not N simultaneous bursts.
			next := start.Add(time.Duration(p) * interval / time.Duration(producers))
			for {
				now := time.Now()
				if now.After(deadline) {
					return
				}
				if wait := next.Sub(now); wait > 0 {
					time.Sleep(wait)
				} else if -wait > interval {
					// Fell behind the open-loop schedule: drop the missed
					// ticks instead of bursting.
					next = now
				}
				next = next.Add(interval)
				sent.Add(int64(batch))
				resp, err := postEvents(client, base+"/events", contentType, body)
				if err != nil {
					clientErrs.Add(1)
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				switch {
				case resp.StatusCode == http.StatusTooManyRequests:
					shed.Add(int64(batch))
					time.Sleep(retryAfter(resp))
				case resp.StatusCode < 200 || resp.StatusCode > 299:
					clientErrs.Add(1)
				}
			}
		}(p)
	}
	wg.Wait()
	elapsed := time.Since(start)

	after, lintAfterErr, err := awaitSettle(client, base, before, settle)
	if err != nil {
		return nil, fmt.Errorf("post-run scrape: %w", err)
	}

	rep := &Report{
		Endpoint:        base,
		TargetRate:      rate,
		BatchSize:       batch,
		Producers:       producers,
		DurationSeconds: elapsed.Seconds(),
		Sent:            sent.Load(),
		Shed:            shed.Load(),
		ClientErrors:    clientErrs.Load(),
		MetricsLint:     lintBeforeErr == nil && lintAfterErr == nil,
	}
	if lintBeforeErr != nil {
		fmt.Fprintf(os.Stderr, "ecaload: pre-run /metrics lint: %v\n", lintBeforeErr)
	}
	if lintAfterErr != nil {
		fmt.Fprintf(os.Stderr, "ecaload: post-run /metrics lint: %v\n", lintAfterErr)
	}
	rep.Admitted = int64(after.Sum("events_admitted_total", nil) - before.Sum("events_admitted_total", nil))
	serverShed := int64(after.Sum("events_shed_total", nil) - before.Sum("events_shed_total", nil))
	if serverShed > rep.Shed {
		// The daemon's count is authoritative (a 429 lost to a client
		// timeout is still a shed event).
		rep.Shed = serverShed
	}
	rep.EventsPerSecond = float64(rep.Admitted) / elapsed.Seconds()
	if total := rep.Admitted + rep.Shed; total > 0 {
		rep.ShedRate = float64(rep.Shed) / float64(total)
	}
	if d := after.HistogramDist("event_e2e_seconds", nil).Sub(before.HistogramDist("event_e2e_seconds", nil)); d.Count > 0 {
		rep.Latency = &Latency{
			Count: d.Count,
			Mean:  d.Mean(),
			P50:   d.Quantile(0.50),
			P95:   d.Quantile(0.95),
			P99:   d.Quantile(0.99),
		}
	}
	rep.ClusterLint = lintClusterMetrics(client, base)
	return rep, nil
}

// retryAfter reads a 429's Retry-After seconds, bounded so the schedule
// resumes promptly even if the daemon advertises a long back-off.
func retryAfter(resp *http.Response) time.Duration {
	secs, err := strconv.Atoi(strings.TrimSpace(resp.Header.Get("Retry-After")))
	if err != nil || secs < 1 {
		secs = 1
	}
	d := time.Duration(secs) * time.Second
	if d > maxRetryAfter {
		d = maxRetryAfter
	}
	return d
}

// scrapeMetrics fetches and parses /metrics; the lint verdict is
// returned separately so a lint violation is reported without aborting
// the run.
func scrapeMetrics(client *http.Client, base string) (*obs.Exposition, error, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, nil, fmt.Errorf("GET /metrics: HTTP %d", resp.StatusCode)
	}
	lintErr := obs.LintExposition(bytes.NewReader(body))
	exp, err := obs.ParseExposition(bytes.NewReader(body))
	if err != nil {
		return nil, lintErr, err
	}
	return exp, lintErr, nil
}

// awaitSettle polls /metrics until the e2e completion count stops
// growing and the admission and detector-partition queues are empty (or
// the budget runs out), so the final scrape covers instances still in
// flight when the load stopped.
func awaitSettle(client *http.Client, base string, before *obs.Exposition, budget time.Duration) (*obs.Exposition, error, error) {
	deadline := time.Now().Add(budget)
	var lastCount int64 = -1
	for {
		exp, lintErr, err := scrapeMetrics(client, base)
		if err != nil {
			return nil, lintErr, err
		}
		count := exp.HistogramDist("event_e2e_seconds", nil).Count
		pending, _ := exp.Value("events_pending", nil)
		// One gauge per detector partition: drained means they sum to zero.
		queued := exp.Sum("snoop_partition_queue_depth", nil)
		if (count == lastCount && pending == 0 && queued == 0) || time.Now().After(deadline) {
			return exp, lintErr, nil
		}
		lastCount = count
		time.Sleep(200 * time.Millisecond)
	}
}

// lintClusterMetrics probes /cluster/metrics: nil when the endpoint is
// not clustered (404), otherwise whether the federated exposition is
// lint-clean.
func lintClusterMetrics(client *http.Client, base string) *bool {
	resp, err := client.Get(base + "/cluster/metrics")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	ok := false
	if resp.StatusCode == http.StatusOK {
		if body, err := io.ReadAll(resp.Body); err == nil {
			if lintErr := obs.LintExposition(bytes.NewReader(body)); lintErr == nil {
				ok = true
			} else {
				fmt.Fprintf(os.Stderr, "ecaload: /cluster/metrics lint: %v\n", lintErr)
			}
		}
	}
	return &ok
}

func printSummary(w io.Writer, rep *Report) {
	fmt.Fprintf(w, "ecaload %s: %d sent, %d admitted (%.1f events/sec), %d shed (%.1f%%), %d client errors\n",
		rep.Endpoint, rep.Sent, rep.Admitted, rep.EventsPerSecond, rep.Shed, rep.ShedRate*100, rep.ClientErrors)
	if rep.Latency != nil {
		fmt.Fprintf(w, "admit→action latency: %d completions, mean %s, p50 %s, p95 %s, p99 %s\n",
			rep.Latency.Count, fmtSec(rep.Latency.Mean), fmtSec(rep.Latency.P50),
			fmtSec(rep.Latency.P95), fmtSec(rep.Latency.P99))
	} else {
		fmt.Fprintln(w, "admit→action latency: no completed instances observed")
	}
	lint := "clean"
	if !rep.MetricsLint {
		lint = "VIOLATIONS"
	}
	fmt.Fprintf(w, "/metrics lint: %s", lint)
	if rep.ClusterLint != nil {
		lint = "clean"
		if !*rep.ClusterLint {
			lint = "VIOLATIONS"
		}
		fmt.Fprintf(w, ", /cluster/metrics lint: %s", lint)
	}
	fmt.Fprintln(w)
}

func fmtSec(s float64) string {
	return time.Duration(s * float64(time.Second)).Round(10 * time.Microsecond).String()
}
