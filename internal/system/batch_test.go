package system

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/events"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/ruleml"
	"repro/internal/store"
	"repro/internal/xmltree"
)

// admitOutcome is everything observable about admitting N events into a
// fresh system: which rule firings happened (the x attribute of each
// notification), the events_admitted_total delta, and the journal record
// counts by kind. The batched admission property (satellite of the
// ordered-dispatch fix) says these must be identical whether the N events
// arrive as one batch or as N sequential single-event POSTs.
type admitOutcome struct {
	fired    []string
	admitted int64
	journal  map[string]int64
	seqLines int
}

// admitEvents stands up a fresh durable system, registers the t:ping →
// t:pong rule, and admits n events in the given mode: "sequential"
// (n single POSTs), "envelope" (one eca:events document) or "ndjson"
// (one application/x-ndjson body).
func admitEvents(t *testing.T, mode string, n int) admitOutcome {
	t.Helper()
	hub := obs.NewHub()
	st, err := store.Open(t.TempDir(), store.Options{Fsync: store.FsyncAlways, Obs: hub})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewLocal(Config{Store: st, Obs: hub})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	srv := httptest.NewServer(sys.Mux(nil, nil))
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/engine/rules", "application/xml", strings.NewReader(simpleRuleXML("batch-rule")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("register = %d", resp.StatusCode)
	}

	event := func(i int) string {
		return fmt.Sprintf(`<t:ping xmlns:t="%s" x="%d"/>`, tNS, i)
	}
	var seqLines int
	post := func(contentType, body string) {
		t.Helper()
		resp, err := http.Post(srv.URL+"/events", contentType, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		out, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("POST /events (%s) = %d %q", mode, resp.StatusCode, out)
		}
		seqLines += len(strings.Fields(string(out)))
	}
	switch mode {
	case "sequential":
		for i := 0; i < n; i++ {
			post("application/xml", event(i))
		}
	case "envelope":
		var b strings.Builder
		fmt.Fprintf(&b, `<eca:events xmlns:eca="%s" xmlns:t="%s">`, protocol.ECANS, tNS)
		for i := 0; i < n; i++ {
			fmt.Fprintf(&b, `<t:ping x="%d"/>`, i)
		}
		b.WriteString(`</eca:events>`)
		post("application/xml", b.String())
	case "ndjson":
		var b strings.Builder
		for i := 0; i < n; i++ {
			line, err := json.Marshal(event(i))
			if err != nil {
				t.Fatal(err)
			}
			b.Write(line)
			b.WriteByte('\n')
		}
		post("application/x-ndjson", b.String())
	default:
		t.Fatalf("unknown mode %q", mode)
	}

	out := admitOutcome{journal: map[string]int64{}, seqLines: seqLines}
	for _, nt := range sys.Notifier.Sent() {
		out.fired = append(out.fired, nt.Message.AttrValue("", "x"))
	}
	sort.Strings(out.fired)
	reg := hub.Metrics()
	out.admitted = reg.CounterVec("events_admitted_total", "", "tenant").With("").Value()
	for _, kind := range []string{store.KindEvent, store.KindEventAck} {
		out.journal[kind] = reg.CounterVec("store_journal_records_total", "", "kind").With(kind).Value()
	}
	return out
}

// TestBatchedAdmissionEquivalence: for N in {1, 2, 7, 64}, admitting N
// events as one batch (either wire shape) is observably identical to N
// sequential single-event POSTs — same rule firings, same
// events_admitted_total delta, same journal records — and the batch
// response carries one sequence number per event.
func TestBatchedAdmissionEquivalence(t *testing.T) {
	for _, n := range []int{1, 2, 7, 64} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			want := admitEvents(t, "sequential", n)
			if len(want.fired) != n {
				t.Fatalf("sequential baseline fired %d rules, want %d", len(want.fired), n)
			}
			for _, mode := range []string{"envelope", "ndjson"} {
				got := admitEvents(t, mode, n)
				if strings.Join(got.fired, ",") != strings.Join(want.fired, ",") {
					t.Errorf("%s firings = %v, sequential = %v", mode, got.fired, want.fired)
				}
				if got.admitted != want.admitted || got.admitted != int64(n) {
					t.Errorf("%s events_admitted_total = %d, sequential = %d, want %d", mode, got.admitted, want.admitted, n)
				}
				for kind, w := range want.journal {
					if got.journal[kind] != w {
						t.Errorf("%s journal records kind=%s: %d, sequential %d", mode, kind, got.journal[kind], w)
					}
				}
				if got.seqLines != n {
					t.Errorf("%s response carried %d sequence numbers, want %d", mode, got.seqLines, n)
				}
			}
		})
	}
}

// TestBatchAdmissionErrors: malformed batches are rejected as 400s before
// anything is journaled or published.
func TestBatchAdmissionErrors(t *testing.T) {
	sys, err := NewLocal(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	srv := httptest.NewServer(sys.Mux(nil, nil))
	defer srv.Close()
	cases := []struct {
		name, ct, body string
	}{
		{"empty envelope", "application/xml", `<eca:events xmlns:eca="` + protocol.ECANS + `"/>`},
		{"empty ndjson", "application/x-ndjson", "\n\n"},
		{"ndjson bad json", "application/x-ndjson", "<not-json/>\n"},
		{"ndjson bad xml", "application/x-ndjson", `"<unclosed"` + "\n"},
		{"bad xml", "application/xml", `<unclosed`},
	}
	for _, c := range cases {
		resp, err := http.Post(srv.URL+"/events", c.ct, strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", c.name, resp.StatusCode)
		}
	}
}

// TestCloseDrainsRuleInstances: every event whose publish returned before
// Close has had its actions run when Close returns, even behind slow
// actions, and Close leaves no goroutine behind.
func TestCloseDrainsRuleInstances(t *testing.T) {
	before := runtime.NumGoroutine()
	sys, err := NewLocal(Config{})
	if err != nil {
		t.Fatal(err)
	}
	const rules, publishers, perPub = 8, 4, 10
	for i := 0; i < rules; i++ {
		if err := sys.Engine.Register(ruleml.MustParse(simpleRuleXML(fmt.Sprintf("drain-%d", i)))); err != nil {
			t.Fatal(err)
		}
	}
	sys.Notifier.OnSend(func(Notification) { time.Sleep(100 * time.Microsecond) }) // slow actions
	var wg sync.WaitGroup
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			evs := make([]events.Event, perPub)
			for i := range evs {
				evs[i] = events.New(xmltree.MustParse(fmt.Sprintf(`<t:ping xmlns:t="%s" x="%d"/>`, tNS, i)))
			}
			sys.Stream.PublishBatch(evs)
		}()
	}
	wg.Wait()
	sys.Close()
	if got, want := sys.Notifier.Count(), rules*publishers*perPub; got != want {
		t.Errorf("Close returned with %d of %d actions run", got, want)
	}
	if st := sys.Engine.Stats(); st.InstancesCompleted != st.InstancesCreated {
		t.Errorf("Close returned mid-instance: %+v", st)
	}
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before NewLocal, %d after Close", before, runtime.NumGoroutine())
		}
	}
}
