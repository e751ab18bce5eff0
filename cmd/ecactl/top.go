package main

import (
	"fmt"
	"io"
	"net/http"
	"text/tabwriter"
	"time"

	"repro/internal/obs"
)

// clusterTop renders a live per-node table from the federated
// /cluster/metrics view: each refresh scrapes the endpoint, diffs the
// counters and the event_e2e_seconds histogram against the previous
// scrape, and prints one row per node — events/sec admitted, the p95
// admit→action latency over the interval, and the admission slots held.
// iterations == 0 refreshes until the process is interrupted.
func clusterTop(out io.Writer, base string, every time.Duration, iterations int) error {
	client := &http.Client{Timeout: 10 * time.Second}
	prev, err := scrapeCluster(client, base)
	if err != nil {
		return err
	}
	prevAt := time.Now()
	for i := 0; iterations == 0 || i < iterations; i++ {
		time.Sleep(every)
		cur, err := scrapeCluster(client, base)
		if err != nil {
			return err
		}
		now := time.Now()
		renderTop(out, prev, cur, now.Sub(prevAt))
		prev, prevAt = cur, now
	}
	return nil
}

// scrapeCluster fetches and parses the federated exposition.
func scrapeCluster(client *http.Client, base string) (*obs.Exposition, error) {
	resp, err := client.Get(base + "/cluster/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		return nil, fmt.Errorf("GET /cluster/metrics: HTTP %d: %s", resp.StatusCode, body)
	}
	return obs.ParseExposition(resp.Body)
}

// renderTop writes one refresh of the per-node table. Rates and the p95
// come from the delta between two scrapes, so they describe the sampled
// interval, not the node's lifetime. A node present in cur but not prev
// (it just came up, or federation just recovered it) gets its rates from
// a zero baseline.
func renderTop(out io.Writer, prev, cur *obs.Exposition, dt time.Duration) {
	secs := dt.Seconds()
	if secs <= 0 {
		secs = 1
	}
	tw := tabwriter.NewWriter(out, 2, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "NODE\tEV/S\tP95\tCOMPLETED\tPENDING")
	for _, node := range cur.LabelValues("node") {
		sel := map[string]string{"node": node}
		rate := (cur.Sum("events_admitted_total", sel) - prev.Sum("events_admitted_total", sel)) / secs
		d := cur.HistogramDist("event_e2e_seconds", sel).Sub(prev.HistogramDist("event_e2e_seconds", sel))
		p95 := "-"
		if d.Count > 0 {
			p95 = time.Duration(d.Quantile(0.95) * float64(time.Second)).Round(10 * time.Microsecond).String()
		}
		pending, _ := cur.Value("events_pending", sel)
		fmt.Fprintf(tw, "%s\t%.1f\t%s\t%d\t%.0f\n", node, rate, p95, d.Count, pending)
	}
	tw.Flush()
}
