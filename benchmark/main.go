// Command benchmark is the repository's performance benchmark: it boots a
// real ecad, drives one seeded workload against it over HTTP and reports
// either the end-to-end metrics (-trace 0) or the per-layer metrics
// (-trace 1) declared in BENCHMARK.json. See README.md.
//
//	go run -C benchmark repro/benchmark -workload travel_local -seed 1 -seconds 10 -trace 0
//
// The last line of standard output is the result as one JSON object.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// watchdog bounds a whole run after the build; when it expires the daemon's process group
// is killed and the run fails.
const watchdog = 150 * time.Second

// sessions is how many daemons a run boots, warms and measures in turn.
const sessions = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "seed of the generated event stream")
	seconds := flag.Float64("seconds", 10, "length of the measured load, in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from the traced pass")
	flag.Parse()
	w := findWorkload(*name)
	if w == nil || *seconds <= 0 || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "usage: benchmark -workload {%s} [-seed N] [-seconds S] [-trace 0|1]\n", strings.Join(workloadNames(), "|"))
		os.Exit(2)
	}

	printEnv(w, *seed, *seconds)
	bin, err := buildDaemon()
	if err != nil {
		fatal(err)
	}

	// From here on a daemon may be running: a signal (a closed output pipe
	// included) or the watchdog cancels ctx, which kills its process group.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM, syscall.SIGHUP, syscall.SIGPIPE)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, watchdog)
	defer cancel()

	var res result
	if *trace == 0 {
		res, err = runEndToEnd(ctx, bin, w, *seed, *seconds)
	} else {
		res, err = runPerLayer(ctx, bin, w, *seed, *seconds)
	}
	if err != nil {
		fatal(err)
	}
	printMetrics(res)
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// clients is how many keep-alive connections drive the load.
func clients() int {
	if runtime.NumCPU() < 2 {
		return 1
	}
	return 2
}

// printEnv records what the numbers were measured on.
func printEnv(w *workload, seed int64, seconds float64) {
	commit := "unknown" // the driver's checkout is not a git repository
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	fmt.Printf("env: workload=%s seed=%d seconds=%g rate=%g/s batch=%d clients=%d nproc=%d gomaxprocs=%d %s commit=%s\n",
		w.name, seed, seconds, w.rate, w.batch, clients(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit)
}

func printMetrics(res result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-34s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	fmt.Printf("attempted=%d failed=%d correct=%v\n", res.Attempted, res.Failed, res.Correct)
}

// session is one booted, registered and warmed daemon with the stream that
// fed it.
type session struct {
	d          *daemon
	st         *stream
	post       func(int, request) bool
	setup      time.Duration // ecad exec → rules registered and warm-up finished
	sent       int           // events sent so far
	failed     int           // events in requests that failed
	mismatches int           // counters on which daemon and oracle disagree
	workers    int
}

// boot starts a daemon for the workload, registers its rules and sends the
// warm-up requests, alternating over the client connections.
func boot(ctx context.Context, bin string, w *workload, rules []string, seed int64) (*session, error) {
	start := time.Now()
	d, err := startDaemon(ctx, bin, w)
	if err != nil {
		return nil, err
	}
	s := &session{d: d, st: w.stream(seed), workers: clients()}
	s.post = poster(d.base, s.workers)
	if err := d.register(rules); err != nil {
		d.saveStderr(w.name)
		d.stop()
		return nil, err
	}
	for i := 0; i < w.warmup; i++ {
		req := s.st.next()
		s.sent += len(req.docs)
		if !s.post(i%s.workers, req) {
			s.failed += len(req.docs)
		}
	}
	s.setup = time.Since(start)
	return s, nil
}

// tally adds a load phase's samples to the session's counts.
func (s *session) tally(samples []sample) (events int) {
	for _, sm := range samples {
		s.sent += sm.events
		if sm.ok {
			events += sm.events
		} else {
			s.failed += sm.events
		}
	}
	return events
}

// check compares what the daemon reports with the oracle, prints one line
// per mismatch and keeps the daemon's stderr when the session went wrong.
func (s *session) check(ctx context.Context, w *workload) error {
	got, err := s.d.observed()
	if err != nil || ctx.Err() != nil {
		s.d.saveStderr(w.name)
		return fmt.Errorf("daemon lost: %v %v", err, ctx.Err())
	}
	mismatches := s.st.exp.diff(got)
	for _, m := range mismatches {
		fmt.Println("oracle mismatch:", m)
	}
	s.mismatches = len(mismatches)
	if s.failed > 0 || s.mismatches > 0 {
		s.d.saveStderr(w.name)
	}
	return nil
}

// phase is the measurements of one daemon's load phases.
type phase struct {
	cpuPerEvent, rss float64
	open, closed     []float64 // per-window p50 latency and capacity, see windowed
	lat              []float64 // every open-loop latency, for the summary line
}

// measure drives the open loop at the pinned rate, then the closed loop on
// the same connections, and checks the daemon's counters against the oracle.
func (s *session) measure(ctx context.Context, w *workload, openLen, closedLen time.Duration) (phase, error) {
	var ph phase
	cpu0, err := s.d.cpuSeconds()
	if err != nil {
		return ph, err
	}
	open := drive(realClock{}, s.workers, w.interval(), openLen, s.st.next, s.post)
	cpu1, err := s.d.cpuSeconds()
	if err != nil {
		return ph, err
	}
	// Read before the closed loop: the open loop sends the same number of
	// events on every run, the closed loop as many as the daemon can take.
	if ph.rss, err = s.d.peakRSSMB(); err != nil {
		return ph, err
	}
	ph.cpuPerEvent = (cpu1 - cpu0) * 1000 / float64(s.tally(open))
	closed := drive(realClock{}, s.workers, 0, closedLen, s.st.next, s.post)
	s.tally(closed)

	if err := s.check(ctx, w); err != nil {
		return ph, err
	}
	ph.open = windowed(open, openLen, latencyPercentile(50))
	ph.closed = windowed(closed, closedLen, completedPerSecond)
	ph.lat = latencies(open)
	return ph, nil
}

// runEndToEnd measures the end-to-end metrics with tracing off. The run is
// `sessions` daemon lifetimes, each booted, registered, warmed and driven for
// a share of the measured time; every metric is the median over the
// sessions' windows (latency, capacity) or over the sessions (the rest), so
// that neither a disturbance of a second nor one unluckily placed process
// moves the reported value.
func runEndToEnd(ctx context.Context, bin string, w *workload, seed int64, seconds float64) (result, error) {
	rules := w.rules()
	openLen := time.Duration(0.6 * seconds / sessions * float64(time.Second))
	closedLen := time.Duration(0.4 * seconds / sessions * float64(time.Second))
	var res result
	var setup, cpu, rss, p50, capacity, lat []float64
	for i := 0; i < sessions; i++ {
		s, err := boot(ctx, bin, w, rules, seed)
		if err != nil {
			return result{}, err
		}
		ph, err := s.measure(ctx, w, openLen, closedLen)
		s.d.stop()
		if err != nil {
			s.d.saveStderr(w.name)
			return result{}, err
		}
		fmt.Printf("session %d: setup %.3f s, cpu %.4f ms/event, peak rss %.1f MB, window p50 %.3f ms, window capacity %.0f /s\n",
			i, s.setup.Seconds(), ph.cpuPerEvent, ph.rss, ph.open, ph.closed)
		res.Attempted += s.sent
		res.Failed += s.failed + s.mismatches
		setup, cpu, rss = append(setup, s.setup.Seconds()), append(cpu, ph.cpuPerEvent), append(rss, ph.rss)
		p50, capacity = append(p50, ph.open...), append(capacity, ph.closed...)
		lat = append(lat, ph.lat...)
	}
	res.Correct = res.Failed == 0
	sort.Float64s(lat)
	top := highestPercentile(len(lat))
	fmt.Printf("open loop: %d latency samples over %d sessions, highest supported percentile p%g = %.4f ms\n",
		len(lat), sessions, top, percentile(lat, top))
	res.Metrics = withUnits(endToEndUnits, map[string]float64{
		"setup_s":          median(setup),
		"latency_p50_ms":   median(p50),
		"capacity_eps":     median(capacity),
		"cpu_ms_per_event": median(cpu),
		"peak_rss_mb":      median(rss),
	})
	return res, nil
}

// endToEndUnits names every end-to-end metric of BENCHMARK.json with its unit.
var endToEndUnits = map[string]string{
	"setup_s": "s", "latency_p50_ms": "ms", "capacity_eps": "1/s", "cpu_ms_per_event": "ms", "peak_rss_mb": "MB",
}

// withUnits renders every metric named in units; one that was not measured
// on this workload reads 0.
func withUnits(units map[string]string, values map[string]float64) map[string]metric {
	out := make(map[string]metric, len(units))
	for name, unit := range units {
		out[name] = metric{values[name], unit}
	}
	return out
}

// windowed cuts a load phase into windows of about one second, by the time
// each request was due, and applies stat to every window.
func windowed(samples []sample, length time.Duration, stat func(window []sample, width time.Duration) float64) []float64 {
	k := int(length / time.Second)
	if k < 1 {
		k = 1
	}
	width := length / time.Duration(k)
	windows := make([][]sample, k)
	for _, sm := range samples {
		if i := int(sm.due / width); i < k {
			windows[i] = append(windows[i], sm)
		}
	}
	stats := make([]float64, k)
	for i, w := range windows {
		stats[i] = stat(w, width)
	}
	return stats
}

func latencyPercentile(p float64) func([]sample, time.Duration) float64 {
	return func(window []sample, _ time.Duration) float64 { return percentile(latencies(window), p) }
}

// completedPerSecond is the rate of events answered in a window.
func completedPerSecond(window []sample, width time.Duration) float64 {
	events := 0
	for _, sm := range window {
		if sm.ok {
			events += sm.events
		}
	}
	return float64(events) / width.Seconds()
}

// latencies returns the sorted latencies, in ms, of the timed requests that
// succeeded.
func latencies(samples []sample) []float64 {
	var out []float64
	for _, sm := range samples {
		if sm.timed && sm.ok {
			out = append(out, ms(sm.latency))
		}
	}
	sort.Float64s(out)
	return out
}
