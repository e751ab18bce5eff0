package system_test

// The durable_batch workload in process: 32-event NDJSON bodies of full
// booking records posted through Mux to a durable system running the
// workload's one light rule (event → local test → action). It measures
// what an admitted event costs from the HTTP handler to its action,
// without loopback HTTP.
//
//	go test -run '^$' -bench DurableBatchHandler -benchtime 200x -benchmem ./internal/system/

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"repro/internal/domain/travel"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/services"
	"repro/internal/store"
	"repro/internal/system"
)

const (
	batchEvents = 32
	benchNS     = "urn:eca:benchmark"
)

// auditRule is the durable_batch rule: a booking that passes a test is
// written to an audit message.
var auditRule = fmt.Sprintf(`<eca:rule xmlns:eca=%q xmlns:travel=%q xmlns:t=%q xmlns:b=%q id="audit">`+
	`<eca:event><travel:booking person="$Person" to="$Dest" ref="$Ref"/></eca:event>`+
	`<eca:test><t:test>$Dest != 'Nowhere'</t:test></eca:test>`+
	`<eca:action><b:audit ref="$Ref" person="$Person" to="$Dest"/></eca:action></eca:rule>`,
	protocol.ECANS, travel.NS, services.TestNS, benchNS)

// bookingBodies returns n NDJSON bodies of batchEvents full booking
// records each, and how many of each body's events fire the audit rule:
// about one in ten is bound for Nowhere, which the test drops.
func bookingBodies(n int) (bodies [][]byte, fires []int) {
	rng := rand.New(rand.NewSource(1))
	people := []string{"John Doe", "Jane Roe", "Max Mustermann", "Erika Musterfrau"}
	cities := []string{"Paris", "Rome", "Oslo", "Lima", "Cairo", "Quito", "Hanoi", "Perth", "Turin", "Nowhere"}
	bodies, fires = make([][]byte, n), make([]int, n)
	ref := 0
	for b := range bodies {
		var body bytes.Buffer
		lines := json.NewEncoder(&body)
		lines.SetEscapeHTML(false)
		for i := 0; i < batchEvents; i++ {
			ref++
			person, to := people[rng.Intn(len(people))], cities[rng.Intn(len(cities))]
			if to != "Nowhere" {
				fires[b]++
			}
			doc := fmt.Sprintf(`<travel:booking xmlns:travel=%q person=%q from="Munich" to=%q ref="%d">`+
				`<travel:passenger name=%q seat="%d%c"/>`+
				`<travel:leg flight="LH%d" from="Munich" to="Frankfurt" date="2006-03-%02d"/>`+
				`<travel:leg flight="LH%d" from="Frankfurt" to=%q date="2006-03-%02d"/>`+
				`<travel:payment method="card" amount="%d.%02d" currency="EUR"/>`+
				`<travel:note>booked through the web front end, e-ticket, no special assistance requested</travel:note>`+
				`</travel:booking>`,
				travel.NS, person, to, ref, person, 1+rng.Intn(40), 'A'+rune(rng.Intn(6)),
				100+rng.Intn(900), 1+rng.Intn(28), 100+rng.Intn(900), to, 1+rng.Intn(28),
				50+rng.Intn(950), rng.Intn(100))
			lines.Encode(doc) // a string into a buffer cannot fail
		}
		bodies[b] = body.Bytes()
	}
	return bodies, fires
}

// durableBatchSystem stands up the system ecad -data-dir builds (metrics
// and traces on, logging at error level, default store policies) with the
// audit rule registered, and returns it with its Mux.
func durableBatchSystem(tb testing.TB) (*system.System, http.Handler) {
	tb.Helper()
	hub := obs.NewHub()
	log := obs.NewLogger(&bytes.Buffer{}, "text", slog.LevelError)
	st, err := store.Open(tb.TempDir(), store.Options{Obs: hub, Log: log})
	if err != nil {
		tb.Fatal(err)
	}
	sys, err := system.NewLocal(system.Config{Namespaces: travel.Namespaces(), Store: st, Obs: hub, Log: log})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(sys.Close)
	mux := sys.Mux(nil, nil)
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/engine/rules", strings.NewReader(auditRule)))
	if rec.Code != http.StatusOK {
		tb.Fatalf("register audit rule = %d %s", rec.Code, rec.Body)
	}
	return sys, mux
}

// postBatch posts one NDJSON body and fails unless every event is admitted.
func postBatch(tb testing.TB, h http.Handler, body []byte) {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/events", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/x-ndjson")
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		tb.Fatalf("POST /events = %d %s", rec.Code, rec.Body)
	}
}

func BenchmarkDurableBatchHandler(b *testing.B) {
	_, h := durableBatchSystem(b)
	bodies, _ := bookingBodies(64)
	for _, body := range bodies[:8] { // warm pools, caches and the journal
		postBatch(b, h, body)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		postBatch(b, h, bodies[i%len(bodies)])
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	n := float64(b.N * batchEvents)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/event")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/n, "allocs/event")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/n, "B/event")
}

// maxInstanceAllocs is TestInstanceAllocs' limit on allocations per event,
// from the HTTP handler to the action. The path makes about 88; each cost
// the allocation-lean instance path removed (index maps of one-tuple
// relations, a payload copy per detection, the arguments of disabled log
// records) was at least 17 per event, so the return of any one fails.
const maxInstanceAllocs = 102

// TestInstanceAllocs pins what an admitted event of the durable_batch
// workload allocates, and checks that the events really fired the rule.
func TestInstanceAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts (sync.Pool drops entries)")
	}
	sys, h := durableBatchSystem(t)
	bodies, fires := bookingBodies(16)
	postBatch(t, h, bodies[0]) // warm pools, caches and the journal
	i := 1
	perBatch := testing.AllocsPerRun(len(bodies)-2, func() {
		postBatch(t, h, bodies[i])
		i++
	})
	want := 0
	for _, n := range fires[:i] {
		want += n
	}
	if got := sys.Notifier.Count(); got != want {
		t.Fatalf("%d audit messages for %d events, want %d", got, i*batchEvents, want)
	}
	perEvent := perBatch / batchEvents
	t.Logf("%.1f allocations per event", perEvent)
	if perEvent > maxInstanceAllocs {
		t.Fatalf("%.1f allocations per event, limit %d", perEvent, maxInstanceAllocs)
	}
}
