package main

import (
	"bytes"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"time"
)

// clock is the time source of the load generator; tests substitute a fake.
type clock interface {
	Now() time.Time
	Sleep(time.Duration)
}

type realClock struct{}

func (realClock) Now() time.Time        { return time.Now() }
func (realClock) Sleep(d time.Duration) { time.Sleep(d) }

// sample is the outcome of one request of a load phase. Offsets count from
// the start of the phase.
type sample struct {
	due      time.Duration // when the request was due (open loop) or sent (closed loop)
	lateness time.Duration // how long after due the generator sent it
	latency  time.Duration // due → response read
	done     time.Duration // when the response was read
	events   int
	timed    bool // counts towards the latency percentiles
	ok       bool
}

// drive runs one load phase from `workers` goroutines, each standing for
// one keep-alive connection, which take requests from next in order.
//
// With interval > 0 the phase is an open loop: request n is due at
// n·interval whatever the daemon does, a worker that is early sleeps until
// then, and latency counts from the due time, so a stall is charged to every
// request it delays. The phase holds the requests due before length.
//
// With interval == 0 the phase is a closed loop: every worker sends its next
// request as soon as the previous one is answered, until length has passed.
func drive(clk clock, workers int, interval, length time.Duration, next func() request, post func(worker int, r request) bool) []sample {
	start := clk.Now()
	var (
		mu  sync.Mutex
		n   int
		out []sample
		wg  sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				mu.Lock()
				due := clk.Now().Sub(start)
				if interval > 0 {
					due = time.Duration(n) * interval
				}
				if due >= length {
					mu.Unlock()
					return
				}
				n++
				req := next()
				mu.Unlock()

				if wait := due - clk.Now().Sub(start); wait > 0 {
					clk.Sleep(wait)
				}
				sent := clk.Now().Sub(start)
				ok := post(w, req)
				done := clk.Now().Sub(start)

				mu.Lock()
				out = append(out, sample{due: due, lateness: sent - due, latency: done - due,
					done: done, events: len(req.docs), timed: req.sample, ok: ok})
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	return out
}

// poster returns the post function of drive: worker w sends on its own
// keep-alive connection and the request succeeds when the daemon answers
// 200 with one sequence number per event.
func poster(base string, workers int) func(int, request) bool {
	clients := make([]*http.Client, workers)
	for i := range clients {
		clients[i] = &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: 1},
			Timeout:   10 * time.Second,
		}
	}
	return func(w int, r request) bool {
		ct := "application/xml"
		if r.ndjson {
			ct = "application/x-ndjson"
		}
		resp, err := clients[w].Post(base+"/events", ct, bytes.NewReader(r.body))
		if err != nil {
			return false
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		return err == nil && resp.StatusCode == http.StatusOK && bytes.Count(body, []byte("\n")) == len(r.docs)
	}
}

// percentile is the nearest-rank p-th percentile (0 < p ≤ 100) of sorted
// values; 0 for an empty sample.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// highestPercentile picks, for a sample of n, the highest reportable
// percentile: the largest of 50, 90, 95, 99 and 99.9 that still leaves at
// least ten samples beyond it.
func highestPercentile(n int) float64 {
	best := 50.0
	for _, perMille := range []int{900, 950, 990, 999} {
		if n*(1000-perMille)/1000 >= 10 {
			best = float64(perMille) / 10
		}
	}
	return best
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
