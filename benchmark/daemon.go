package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
)

// outDir holds everything a run leaves behind: the ecad binary, the
// daemon's temporary data directory, trace files and, after a failure, the
// daemon's stderr. It is inside the benchmark directory and git-ignored.
const outDir = "out"

// buildDaemon compiles cmd/ecad from the checkout the benchmark sits in. The
// benchmark runs from its own directory, so the repository root is "..".
func buildDaemon() (string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	bin, err := filepath.Abs(filepath.Join(outDir, "ecad"))
	if err != nil {
		return "", err
	}
	// The build reads and writes inside the checkout only: its cache and its
	// work directory are under outDir too.
	cache, tmp := filepath.Join(filepath.Dir(bin), "gocache"), filepath.Join(filepath.Dir(bin), "gotmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-buildvcs=false", "-o", bin, "./cmd/ecad")
	cmd.Dir = ".."
	cmd.Env = append(os.Environ(), "GOCACHE="+cache, "GOTMPDIR="+tmp)
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/ecad: %w\n%s", err, out)
	}
	// The build (and the go run that started this program) left dirty pages
	// behind; flushed now, they do not compete with the journal fsyncs of the
	// durable workload while it is measured.
	syscall.Sync()
	return bin, nil
}

// daemon is one running ecad child, in a process group of its own so that
// stop takes every process it may have started with it.
type daemon struct {
	cmd     *exec.Cmd
	base    string
	stderr  bytes.Buffer
	dataDir string
	client  *http.Client
}

// startDaemon boots ecad with its default flags (plus quiet logging and no
// pprof) for the workload on a free loopback port and waits until it is
// ready. ecad serves requests, and counts a start-up rule in /healthz, before
// the rule's event component is registered with its detection service; an
// event sent in between is accepted and matches nothing. The daemon is ready
// when /metrics shows one completed GRH dispatch, the registration, for the
// rule that -travel loads.
func startDaemon(ctx context.Context, bin string, w *workload) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()

	d := &daemon{base: "http://" + addr, client: &http.Client{Timeout: 30 * time.Second}}
	args := []string{"-addr", addr, "-log-level", "error", "-pprof=false"}
	if w.travel {
		args = append(args, "-travel")
	}
	if w.distribute {
		args = append(args, "-distribute")
	}
	if w.durable {
		if d.dataDir, err = os.MkdirTemp(outDir, "data-"); err != nil {
			return nil, err
		}
		args = append(args, "-data-dir", d.dataDir)
	}
	d.cmd = exec.CommandContext(ctx, bin, args...)
	d.cmd.Stderr = &d.stderr
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	d.cmd.Cancel = d.kill
	if err := d.cmd.Start(); err != nil {
		d.removeData()
		return nil, err
	}
	ready := func() bool {
		if !w.travel {
			_, err := d.get("/healthz")
			return err == nil
		}
		exp, err := d.scrape()
		return err == nil && exp.Sum("grh_dispatch_seconds_count", nil) >= 1
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if ready() {
			return d, nil
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("ecad not healthy after 10s: %s", d.stderr.String())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (d *daemon) removeData() {
	if d.dataDir != "" {
		os.RemoveAll(d.dataDir)
	}
}

func (d *daemon) kill() error { return syscall.Kill(-d.cmd.Process.Pid, syscall.SIGKILL) }

// stop kills the daemon's process group, waits for it and removes its data
// directory. Safe to call more than once.
func (d *daemon) stop() {
	if d.cmd.ProcessState == nil {
		d.kill()
		d.cmd.Wait()
	}
	d.removeData()
}

// saveStderr keeps the daemon's stderr for a failed run.
func (d *daemon) saveStderr(name string) {
	os.WriteFile(filepath.Join(outDir, "ecad-"+name+".stderr"), d.stderr.Bytes(), 0o644)
}

// cpuSeconds is the CPU time the daemon's threads have spent on a processor,
// user and system, summed over /proc/<pid>/task/*/schedstat. Unlike the
// tick-sampled utime/stime of /proc/<pid>/stat it is exact to the nanosecond.
func (d *daemon) cpuSeconds() (float64, error) {
	tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", d.cmd.Process.Pid))
	if err != nil || len(tasks) == 0 {
		return 0, fmt.Errorf("no schedstat for pid %d: %v", d.cmd.Process.Pid, err)
	}
	var ns float64
	for _, t := range tasks {
		raw, err := os.ReadFile(t)
		if err != nil {
			continue // the thread exited between the glob and the read
		}
		onCPU, _, _ := strings.Cut(string(raw), " ")
		v, err := strconv.ParseFloat(onCPU, 64)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", t, err)
		}
		ns += v
	}
	return ns / 1e9, nil
}

// peakRSSMB is the daemon's high-water resident set size.
func (d *daemon) peakRSSMB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

func (d *daemon) get(path string) ([]byte, error) {
	resp, err := d.client.Get(d.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", path, resp.Status, body)
	}
	return body, nil
}

// register posts the rule documents one by one.
func (d *daemon) register(rules []string) error {
	for _, doc := range rules {
		resp, err := d.client.Post(d.base+"/engine/rules", "application/xml", strings.NewReader(doc))
		if err != nil {
			return err
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("POST /engine/rules: %s: %s", resp.Status, body)
		}
	}
	return nil
}

// observed is what the daemon reports about its engine: the counters of GET
// /engine/stats and the per-rule bookkeeping of GET /engine/rules.
func (d *daemon) observed() (expect, error) {
	got := newExpect()
	body, err := d.get("/engine/stats")
	if err != nil {
		return got, err
	}
	stats := map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(string(body)), "\n") {
		name, val, _ := strings.Cut(line, " ")
		if stats[name], err = strconv.Atoi(val); err != nil {
			return got, fmt.Errorf("/engine/stats line %q: %w", line, err)
		}
	}
	got.Created, got.Completed, got.Died = stats["instances_created"], stats["instances_completed"], stats["instances_died"]
	got.ActionRuns, got.Notifications = stats["action_runs"], stats["notifications"]

	if body, err = d.get("/engine/rules"); err != nil {
		return got, err
	}
	var list struct {
		Rules []struct {
			ID      string `json:"id"`
			Firings int    `json:"firings"`
			Died    int    `json:"died"`
		} `json:"rules"`
	}
	if err := json.Unmarshal(body, &list); err != nil {
		return got, fmt.Errorf("/engine/rules: %w", err)
	}
	for _, r := range list.Rules {
		if r.Firings > 0 {
			got.Firings[r.ID] = r.Firings
		}
		if r.Died > 0 {
			got.DiedBy[r.ID] = r.Died
		}
	}
	return got, nil
}

// scrape reads the daemon's /metrics exposition.
func (d *daemon) scrape() (*obs.Exposition, error) {
	body, err := d.get("/metrics")
	if err != nil {
		return nil, err
	}
	return obs.ParseExposition(bytes.NewReader(body))
}
