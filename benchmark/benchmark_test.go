package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"sort"
	"testing"
	"time"
)

// generate draws n requests from a workload's stream.
func generate(w *workload, seed int64, n int) ([][]byte, expect) {
	st := w.stream(seed)
	var bodies [][]byte
	for i := 0; i < n; i++ {
		bodies = append(bodies, st.next().body)
	}
	return bodies, st.exp
}

func TestSameSeedSameStreamAndOracle(t *testing.T) {
	for _, w := range workloads {
		a, expA := generate(w, 7, 1500)
		b, expB := generate(w, 7, 1500)
		if !reflect.DeepEqual(a, b) || !reflect.DeepEqual(expA, expB) {
			t.Errorf("%s: seed 7 generated two different streams or oracles", w.name)
		}
		c, _ := generate(w, 8, 1500)
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 generated the same stream", w.name)
		}
		if expA.Created == 0 || expA.Created != expA.Completed+expA.Died {
			t.Errorf("%s: oracle counts do not add up: %+v", w.name, expA)
		}
	}
}

func TestTravelOracleJoinsOwnCarsWithAvailability(t *testing.T) {
	got := travelMessages("John Doe", "Paris")
	want := []string{"inform car=Opel Astra class=B ownCar=VW Passat person=John Doe"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("John Doe to Paris: got %q, want %q", got, want)
	}
	if got := travelMessages("Jane Roe", "Paris"); got != nil {
		t.Errorf("Jane Roe to Paris should die at the join, got %q", got)
	}
	if got := travelMessages("Max Mustermann", "Rome"); got != nil {
		t.Errorf("a person without cars should die at the first query, got %q", got)
	}
}

func TestSnoopOracleConsumesEveryInitiator(t *testing.T) {
	st := snoopStream(3)
	opens, closes := 0, 0
	for i := 0; i < 20000; i++ {
		if bytes.Contains(st.next().body, []byte("<b:open")) {
			opens++
		} else {
			closes++
		}
		if pending := opens - closes; pending < 0 || pending > snoopKeys {
			t.Fatalf("after %d events %d initiators are pending", i+1, pending)
		}
	}
	if pending := opens - closes; pending < snoopPending*9/10 || pending > snoopPending*11/10 {
		t.Errorf("steady state has %d initiators pending, want about %d", pending, snoopPending)
	}
	if st.exp.Firings["pair-seq"] != closes {
		t.Errorf("sequence fired %d times for %d terminators", st.exp.Firings["pair-seq"], closes)
	}
}

func TestHighestPercentileLeavesTenSamplesBeyond(t *testing.T) {
	for n, want := range map[int]float64{19: 50, 99: 50, 100: 90, 200: 95, 999: 95, 1000: 99, 10000: 99.9} {
		if got := highestPercentile(n); got != want {
			t.Errorf("highestPercentile(%d) = %g, want %g", n, got, want)
		}
	}
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(i + 1)
	}
	for p, want := range map[float64]float64{50: 50, 95: 95, 99: 99, 100: 100} {
		if got := percentile(v, p); got != want {
			t.Errorf("percentile(1..100, %g) = %g, want %g", p, got, want)
		}
	}
}

// fakeClock is advanced by whoever sleeps or works on it.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time        { return c.now }
func (c *fakeClock) Sleep(d time.Duration) { c.now = c.now.Add(d) }

// One response that stalls for 50 ms in a 10 ms schedule must be charged to
// the requests behind it: their latency counts from when they were due.
func TestOpenLoopMeasuresFromDueTime(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	sent := 0
	next := func() request { return single("<e/>", true, nil) }
	post := func(int, request) bool {
		service := time.Millisecond
		if sent == 5 {
			service = 50 * time.Millisecond
		}
		sent++
		clk.Sleep(service)
		return true
	}
	samples := drive(clk, 1, 10*time.Millisecond, 200*time.Millisecond, next, post)
	if len(samples) != 20 {
		t.Fatalf("open loop sent %d requests, want the 20 due in 200 ms", len(samples))
	}
	for i, want := range map[int]time.Duration{4: time.Millisecond, 5: 50 * time.Millisecond, 6: 41 * time.Millisecond, 7: 32 * time.Millisecond, 11: time.Millisecond} {
		if samples[i].latency != want {
			t.Errorf("request %d: latency %v, want %v", i, samples[i].latency, want)
		}
	}
	var late []float64
	for _, sm := range samples {
		late = append(late, ms(sm.lateness))
	}
	sort.Float64s(late)
	if got := percentile(late, 95); got != 31 {
		t.Errorf("lateness p95 = %g ms, want 31", got)
	}
}

func TestClosedLoopSendsBackToBack(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	post := func(int, request) bool { clk.Sleep(4 * time.Millisecond); return true }
	samples := drive(clk, 1, 0, 100*time.Millisecond, func() request { return single("<e/>", true, nil) }, post)
	if len(samples) != 25 {
		t.Fatalf("closed loop completed %d requests in 100 ms at 4 ms each, want 25", len(samples))
	}
	if got := windowed(samples, 100*time.Millisecond, completedPerSecond); len(got) != 1 || got[0] != 250 {
		t.Errorf("capacity windows = %v, want [250]", got)
	}
}

func TestSelfTimeIsSpanMinusWhatChildrenCover(t *testing.T) {
	spans := []span{
		{Unit: 1, Name: "a", Start: 0, End: 100},
		{Unit: 1, Name: "b", Parent: "a", Start: 10, End: 30},
		{Unit: 1, Name: "c", Parent: "a", Start: 20, End: 50}, // overlaps b
		{Unit: 1, Name: "d", Parent: "a", Start: 60, End: 70},
		{Unit: 1, Name: "e", Parent: "b", Start: 12, End: 18},
		{Unit: 2, Name: "b", Parent: "a", Start: 0, End: 100}, // another request
	}
	want := []int64{50, 14, 30, 10, 6, 100}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("self times = %v, want %v", got, want)
	}
}

func TestNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type declared struct{ Name, Unit string }
	var doc struct {
		Workloads []declared
		EndToEnd  []declared `json:"end_to_end"`
		PerLayer  []declared `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	units := func(ds []declared) map[string]string {
		out := map[string]string{}
		for _, d := range ds {
			if !name.MatchString(d.Name) {
				t.Errorf("name %q is not made of letters, digits, _ . -", d.Name)
			}
			out[d.Name] = d.Unit
		}
		return out
	}
	if got, want := units(doc.EndToEnd), endToEndUnits; !reflect.DeepEqual(got, want) {
		t.Errorf("end_to_end declares %v, the runner emits %v", got, want)
	}
	if got, want := units(doc.PerLayer), perLayerUnits; !reflect.DeepEqual(got, want) {
		t.Errorf("per_layer declares %v, the runner emits %v", got, want)
	}
	var declaredWorkloads []string
	for _, w := range doc.Workloads {
		declaredWorkloads = append(declaredWorkloads, w.Name)
	}
	if !reflect.DeepEqual(declaredWorkloads, workloadNames()) {
		t.Errorf("workloads declared %v, the runner has %v", declaredWorkloads, workloadNames())
	}
}
