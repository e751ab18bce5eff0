package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"repro/internal/domain/travel"
	"repro/internal/protocol"
	"repro/internal/services"
	"repro/internal/snoop"
)

// Namespaces used by the generated rules and events.
const (
	ecaNS    = protocol.ECANS
	snoopNS  = snoop.NS
	testNS   = services.TestNS
	travelNS = travel.NS
	benchNS  = "urn:eca:benchmark"
)

// request is one POST /events body. Everything the oracle knows about it is
// decided when it is generated, so the daemon only ever sees generated input.
type request struct {
	body   []byte
	ndjson bool
	docs   []string // the event documents carried by body, in order
	sample bool     // open-loop latency is sampled on this request
	want   []string // notifier messages the oracle expects, canonical form, sorted
}

// expect is the oracle's running total over every request generated so far:
// what GET /engine/stats and GET /engine/rules must report once the daemon
// has processed exactly those requests.
type expect struct {
	Created, Completed, Died, ActionRuns, Notifications int

	Firings, DiedBy map[string]int // per rule id
}

func newExpect() expect {
	return expect{Firings: map[string]int{}, DiedBy: map[string]int{}}
}

func (e *expect) fire(rule string, tuples int) {
	e.Created++
	e.Completed++
	e.ActionRuns++
	e.Notifications += tuples
	e.Firings[rule]++
}

func (e *expect) die(rule string) {
	e.Created++
	e.Died++
	e.DiedBy[rule]++
}

// diff lists where the daemon's counters differ from the oracle's.
func (e expect) diff(got expect) []string {
	var out []string
	cmp := func(what string, want, got int) {
		if want != got {
			out = append(out, fmt.Sprintf("%s: daemon reports %d, oracle expects %d", what, got, want))
		}
	}
	cmp("instances_created", e.Created, got.Created)
	cmp("instances_completed", e.Completed, got.Completed)
	cmp("instances_died", e.Died, got.Died)
	cmp("action_runs", e.ActionRuns, got.ActionRuns)
	cmp("notifications", e.Notifications, got.Notifications)
	perRule := func(what string, want, got map[string]int) {
		for id, n := range want {
			cmp(what+" of rule "+id, n, got[id])
		}
		for id, n := range got {
			if _, ok := want[id]; !ok {
				cmp(what+" of rule "+id, 0, n)
			}
		}
	}
	perRule("firings", e.Firings, got.Firings)
	perRule("died", e.DiedBy, got.DiedBy)
	sort.Strings(out)
	return out
}

// stream generates a workload's requests from a seed and keeps the oracle's
// totals in step with them.
type stream struct {
	exp  expect
	next func() request
}

// workload is one traffic mix. rate is the pinned open-loop rate in events
// per second, about 40 % of the closed-loop capacity measured on the
// builder's box; it is never tuned at run time.
type workload struct {
	name       string
	travel     bool // ecad -travel: documents, opaque nodes and the Fig. 4 rule
	distribute bool // ecad -distribute: every component over the HTTP wire protocol
	durable    bool // ecad -data-dir <tmp>, with the default fsync and snapshot policies
	batch      int  // events per request (NDJSON when > 1)
	warmup     int  // warm-up requests before anything is measured
	traced     int  // requests the traced pass measures after its warm-up
	rate       float64
	rules      func() []string // rule documents registered over POST /engine/rules
	stream     func(seed int64) *stream
}

// interval is the open loop's time between two requests.
func (w *workload) interval() time.Duration {
	return time.Duration(float64(w.batch) / w.rate * float64(time.Second))
}

var workloads = []*workload{
	{name: "travel_local", travel: true, batch: 1, warmup: 200, traced: 2000, rate: 700, rules: noRules, stream: travelStream},
	{name: "travel_distributed", travel: true, distribute: true, batch: 1, warmup: 200, traced: 2000, rate: 400, rules: noRules, stream: travelStream},
	{name: "rulescale_match", batch: 1, warmup: 200, traced: 2000, rate: 200, rules: rulescaleRules, stream: rulescaleStream},
	// The warm-up fills the detectors to their steady state of pending
	// initiators before the first timed event.
	{name: "snoop_sequence", batch: 1, warmup: 2 * snoopKeys, traced: 2000, rate: 900, rules: snoopRules, stream: snoopStream},
	{name: "durable_batch", durable: true, batch: durableBatch, warmup: 200, traced: 250, rate: 4000, rules: durableRules, stream: durableStream},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func noRules() []string { return nil }

// single wraps one event document as a request.
func single(doc string, sample bool, want []string) request {
	return request{body: []byte(doc), docs: []string{doc}, sample: sample, want: want}
}

// message renders a notifier message in the canonical form both the oracle
// and the traced pass use: the local element name, then attributes by name.
func message(local string, attrs map[string]string) string {
	keys := make([]string, 0, len(attrs))
	for k := range attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(local)
	for _, k := range keys {
		fmt.Fprintf(&b, " %s=%s", k, attrs[k])
	}
	return b.String()
}

// --- travel_local, travel_distributed -------------------------------------------

// The oracle's copy of the example's Web documents, as lookup tables.
var (
	ownCars   = map[string][]string{"John Doe": {"VW Golf", "VW Passat"}, "Jane Roe": {"Twingo"}}
	carClass  = map[string]string{"VW Golf": "C", "VW Passat": "B", "Twingo": "A"}
	available = map[string]map[string]string{
		"Paris": {"B": "Opel Astra", "D": "Renault Espace"},
		"Rome":  {"A": "Fiat Panda", "C": "VW Golf"},
	}
)

// travelMix weights the bookings so that about 60 % complete with one action
// tuple, 25 % die at the join with the availability answer and 15 % at the
// first query (a person who owns no car).
var travelMix = []struct {
	person, to string
	weight     int
}{
	{"John Doe", "Paris", 25}, {"John Doe", "Rome", 20}, {"Jane Roe", "Rome", 15},
	{"John Doe", "Oslo", 9}, {"Jane Roe", "Paris", 8}, {"Jane Roe", "Oslo", 8},
	{"Max Mustermann", "Paris", 5}, {"Max Mustermann", "Rome", 5}, {"Max Mustermann", "Oslo", 5},
}

// travelMessages is the reference evaluation of the Fig. 4 rule: own cars,
// their classes, joined with the classes available at the destination.
func travelMessages(person, to string) []string {
	var out []string
	for _, car := range ownCars[person] {
		class := carClass[car]
		if avail, ok := available[to][class]; ok {
			out = append(out, message("inform", map[string]string{
				"person": person, "ownCar": car, "class": class, "car": avail}))
		}
	}
	sort.Strings(out)
	return out
}

func travelStream(seed int64) *stream {
	rng := rand.New(rand.NewSource(seed))
	total := 0
	for _, m := range travelMix {
		total += m.weight
	}
	s := &stream{exp: newExpect()}
	s.next = func() request {
		pick := rng.Intn(total)
		i := 0
		for pick >= travelMix[i].weight {
			pick -= travelMix[i].weight
			i++
		}
		m := travelMix[i]
		want := travelMessages(m.person, m.to)
		if len(want) > 0 {
			s.exp.fire("car-rental", len(want))
		} else {
			s.exp.die("car-rental")
		}
		doc := fmt.Sprintf(`<travel:booking xmlns:travel=%q person=%q from="Munich" to=%q/>`, travelNS, m.person, m.to)
		return single(doc, true, want)
	}
	return s
}

// --- rulescale_match ------------------------------------------------------------

const (
	rulescaleNames    = 1000
	rulescaleVariants = 10
)

func rulescaleID(n, v int) string { return fmt.Sprintf("m%04d-%d", n, v) }

// rulescaleRules is 10⁴ atomic rules: every root element name carries ten
// rules that differ in one attribute literal, so an event matches one rule.
func rulescaleRules() []string {
	out := make([]string, 0, rulescaleNames*rulescaleVariants)
	for n := 0; n < rulescaleNames; n++ {
		for v := 0; v < rulescaleVariants; v++ {
			id := rulescaleID(n, v)
			out = append(out, fmt.Sprintf(`<eca:rule xmlns:eca=%q xmlns:b=%q id=%q>`+
				`<eca:event><b:e%04d kind="v%d" seq="$Seq"/></eca:event>`+
				`<eca:action><b:fired rule=%q seq="$Seq"/></eca:action></eca:rule>`,
				ecaNS, benchNS, id, n, v, id))
		}
	}
	return out
}

func rulescaleStream(seed int64) *stream {
	rng := rand.New(rand.NewSource(seed))
	const rules = rulescaleNames * rulescaleVariants
	// Zipf ranks are spread over the rule set by a seeded permutation, so the
	// hot rules differ from seed to seed.
	perm := rng.Perm(rules)
	zipf := rand.NewZipf(rng, 1.1, 1, rules-1)
	s := &stream{exp: newExpect()}
	seq := 0
	s.next = func() request {
		r := perm[zipf.Uint64()]
		n, v := r/rulescaleVariants, r%rulescaleVariants
		seq++
		id := rulescaleID(n, v)
		s.exp.fire(id, 1)
		doc := fmt.Sprintf(`<b:e%04d xmlns:b=%q kind="v%d" seq="%d"/>`, n, benchNS, v, seq)
		return single(doc, true, []string{message("fired", map[string]string{"rule": id, "seq": fmt.Sprint(seq)})})
	}
	return s
}

// --- snoop_sequence -------------------------------------------------------------

const (
	snoopKeys    = 2000 // live keys
	snoopPending = 1000 // initiators pending at steady state
)

func snoopRules() []string {
	rule := func(id, op string) string {
		return fmt.Sprintf(`<eca:rule xmlns:eca=%q xmlns:snoop=%q xmlns:b=%q id=%q><eca:event>`+
			`<snoop:%s context="chronicle">`+
			`<snoop:event><b:open key="$K"/></snoop:event>`+
			`<snoop:event><b:close key="$K"/></snoop:event>`+
			`</snoop:%s></eca:event>`+
			`<eca:action><b:paired by=%q key="$K"/></eca:action></eca:rule>`,
			ecaNS, snoopNS, benchNS, id, op, op, id)
	}
	return []string{rule("pair-seq", "seq"), rule("pair-and", "and")}
}

// snoopStream interleaves open/close pairs over the live keys. A key is
// opened, closed about snoopPending events later, and reused no sooner than
// that again, so no two events of one key are close enough for the two client
// connections to reorder them, and every initiator is eventually consumed.
//
// Reference semantics under the chronicle context: the sequence fires on
// every close (its open is still pending); the conjunction keeps the last
// occurrence of either side, so it fires on every event of a key but the
// first.
func snoopStream(seed int64) *stream {
	rng := rand.New(rand.NewSource(seed))
	free := rng.Perm(snoopKeys) // keys not open, oldest first
	var open []int              // keys open, oldest first
	seen := make([]bool, snoopKeys)
	s := &stream{exp: newExpect()}
	// takeOld removes one of the older half of q, chosen by the seed.
	takeOld := func(q *[]int) int {
		i := rng.Intn(len(*q)/2 + 1)
		k := (*q)[i]
		*q = append((*q)[:i], (*q)[i+1:]...)
		return k
	}
	s.next = func() request {
		// Mean-reverting choice: always open below half the target, then
		// ever less often, so the pending count settles near snoopPending.
		pOpen := 0.5 + float64(snoopPending-len(open))/float64(snoopPending)
		var k int
		var name string
		var want []string
		if rng.Float64() < pOpen {
			k, name = takeOld(&free), "open"
			open = append(open, k)
		} else {
			k, name = takeOld(&open), "close"
			free = append(free, k)
			s.exp.fire("pair-seq", 1)
			want = append(want, message("paired", map[string]string{"by": "pair-seq", "key": snoopKey(k)}))
		}
		if seen[k] {
			s.exp.fire("pair-and", 1)
			want = append(want, message("paired", map[string]string{"by": "pair-and", "key": snoopKey(k)}))
		}
		seen[k] = true
		sort.Strings(want)
		doc := fmt.Sprintf(`<b:%s xmlns:b=%q key=%q/>`, name, benchNS, snoopKey(k))
		// Latency is sampled on terminators: they complete a detection.
		return single(doc, name == "close", want)
	}
	return s
}

func snoopKey(k int) string { return fmt.Sprintf("k%04d", k) }

// --- durable_batch --------------------------------------------------------------

// durableRules is one light rule: a booking that passes a test dispatched
// through the GRH is written to an audit message.
func durableRules() []string {
	return []string{fmt.Sprintf(`<eca:rule xmlns:eca=%q xmlns:travel=%q xmlns:t=%q xmlns:b=%q id="audit">`+
		`<eca:event><travel:booking person="$Person" to="$Dest" ref="$Ref"/></eca:event>`+
		`<eca:test><t:test>$Dest != 'Nowhere'</t:test></eca:test>`+
		`<eca:action><b:audit ref="$Ref" person="$Person" to="$Dest"/></eca:action></eca:rule>`,
		ecaNS, travelNS, testNS, benchNS)}
}

func durableStream(seed int64) *stream {
	rng := rand.New(rand.NewSource(seed))
	people := []string{"John Doe", "Jane Roe", "Max Mustermann", "Erika Musterfrau"}
	// One booking in ten fails the test and dies.
	cities := []string{"Paris", "Rome", "Oslo", "Lima", "Cairo", "Quito", "Hanoi", "Perth", "Turin", "Nowhere"}
	s := &stream{exp: newExpect()}
	ref := 0
	s.next = func() request {
		req := request{ndjson: true, sample: true}
		var body bytes.Buffer
		lines := json.NewEncoder(&body) // one JSON string of XML per line
		lines.SetEscapeHTML(false)
		for i := 0; i < durableBatch; i++ {
			ref++
			person, to := people[rng.Intn(len(people))], cities[rng.Intn(len(cities))]
			if to == "Nowhere" {
				s.exp.die("audit")
			} else {
				s.exp.fire("audit", 1)
				req.want = append(req.want, message("audit", map[string]string{
					"ref": fmt.Sprint(ref), "person": person, "to": to}))
			}
			// A full booking record: the rule reads the root's attributes, the
			// admission path parses and journals all of it.
			doc := fmt.Sprintf(`<travel:booking xmlns:travel=%q person=%q from="Munich" to=%q ref="%d">`+
				`<travel:passenger name=%q seat="%d%c"/>`+
				`<travel:leg flight="LH%d" from="Munich" to="Frankfurt" date="2006-03-%02d"/>`+
				`<travel:leg flight="LH%d" from="Frankfurt" to=%q date="2006-03-%02d"/>`+
				`<travel:payment method="card" amount="%d.%02d" currency="EUR"/>`+
				`<travel:note>booked through the web front end, e-ticket, no special assistance requested</travel:note>`+
				`</travel:booking>`,
				travelNS, person, to, ref, person, 1+rng.Intn(40), 'A'+rune(rng.Intn(6)),
				100+rng.Intn(900), 1+rng.Intn(28), 100+rng.Intn(900), to, 1+rng.Intn(28),
				50+rng.Intn(950), rng.Intn(100))
			req.docs = append(req.docs, doc)
			_ = lines.Encode(doc) // a string into a buffer cannot fail
		}
		sort.Strings(req.want)
		req.body = body.Bytes()
		return req
	}
	return s
}

const durableBatch = 32
