package snoop

import (
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"testing"
	"time"

	"repro/internal/bindings"
	"repro/internal/events"
	"repro/internal/xmltree"
)

// pendingFeed drives a chronicle <a k="$K"/> ; <b k="$K"/> detector with a
// fixed number of initiators pending, the shape of the snoop_sequence
// workload: one step closes a random open key (one detection) and opens a
// random free one. Payloads are built up front, so a step allocates only
// what Feed does.
type pendingFeed struct {
	d             *Detector
	rng           *rand.Rand
	open, free    []int
	opens, closes []*xmltree.Node
	seq           uint64
	fired         int
}

func newPendingFeed(tb testing.TB, pending int) *pendingFeed {
	tb.Helper()
	f := &pendingFeed{rng: rand.New(rand.NewSource(1))}
	d, err := NewDetector(&Seq{atomic(`<a k="$K"/>`), atomic(`<b k="$K"/>`)}, Chronicle,
		func(Occurrence) { f.fired++ })
	if err != nil {
		tb.Fatal(err)
	}
	f.d = d
	payload := func(name string, k int) *xmltree.Node {
		e := xmltree.NewElement("", name)
		e.SetAttr("", "k", fmt.Sprintf("k%05d", k))
		return e
	}
	for k := 0; k < 2*pending; k++ {
		f.opens = append(f.opens, payload("a", k))
		f.closes = append(f.closes, payload("b", k))
		if k < pending {
			f.open = append(f.open, k)
			f.feed(f.opens[k])
		} else {
			f.free = append(f.free, k)
		}
	}
	return f
}

func (f *pendingFeed) feed(payload *xmltree.Node) {
	f.seq++
	f.d.Feed(events.Event{Payload: payload, Seq: f.seq, Time: time.Unix(int64(f.seq), 0)})
}

func (f *pendingFeed) step() {
	i, j := f.rng.Intn(len(f.open)), f.rng.Intn(len(f.free))
	closed, opened := f.open[i], f.free[j]
	f.open[i], f.free[j] = opened, closed
	f.feed(f.closes[closed])
	f.feed(f.opens[opened])
}

// BenchmarkDetectorFeed: one op is one terminator and one initiator fed to
// a chronicle sequence joined on $K. Keyed stores make it independent of
// the number of initiators pending; CI fails when 1e4 pending costs more
// than three times what 10 do.
func BenchmarkDetectorFeed(b *testing.B) {
	for _, c := range []struct {
		name    string
		pending int
	}{{"10", 10}, {"1e3", 1000}, {"1e4", 10000}} {
		b.Run("pending="+c.name, func(b *testing.B) {
			f := newPendingFeed(b, c.pending)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.step()
			}
			if f.fired != b.N {
				b.Fatalf("%d detections in %d steps", f.fired, b.N)
			}
		})
	}
}

// TestDetectorFeedAllocationsIgnorePending: a step allocates as much with
// 10⁴ initiators pending as with 10 — nothing per pending initiator.
func TestDetectorFeedAllocationsIgnorePending(t *testing.T) {
	allocs := func(pending int) float64 {
		f := newPendingFeed(t, pending)
		return testing.AllocsPerRun(1000, f.step)
	}
	small, large := allocs(10), allocs(10000)
	if large != small {
		t.Fatalf("allocations per step: %v at 10 pending, %v at 10⁴", small, large)
	}
}

// liveHeap is the live heap after a full collection.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// TestPendingInitiatorBytes breaks down the live heap a pending chronicle
// initiator of <a k="$K"/> ; <b k="$K"/> costs, and pins it. Per
// initiator the detector keeps the bindings tuple the pattern matched (a
// one-entry map, most of the cost), the occurrence in its key's bucket, the
// one-event constituent slice and the bucket itself; the event's payload
// tree is kept too, as the constituent a detection answer carries.
func TestPendingInitiatorBytes(t *testing.T) {
	const n = 10_000
	d, err := NewDetector(&Seq{atomic(`<a k="$K"/>`), atomic(`<b k="$K"/>`)}, Chronicle, func(Occurrence) {})
	if err != nil {
		t.Fatal(err)
	}
	pattern := atomic(`<a k="$K"/>`).Pattern
	h0 := liveHeap()
	payloads := make([]*xmltree.Node, n)
	for i := range payloads {
		e := xmltree.NewElement("", "a")
		e.SetAttr("", "k", strconv.Itoa(i))
		payloads[i] = e
	}
	h1 := liveHeap()
	for i, p := range payloads {
		d.Feed(events.Event{Payload: p, Seq: uint64(i + 1), Time: time.Unix(int64(i), 0)})
	}
	h2 := liveHeap()
	tuples := make([]bindings.Tuple, n)
	for i, p := range payloads {
		tuples[i] = pattern.Match(events.Event{Payload: p})[0]
	}
	h3 := liveHeap()
	runtime.KeepAlive(payloads)
	runtime.KeepAlive(tuples)
	runtime.KeepAlive(d)

	payload, detector, tuple := (h1-h0)/n, (h2-h1)/n, (h3-h2)/n
	t.Logf("per pending initiator: %d B in the detector (%d B bindings tuple, %d B occurrence, constituent and bucket) + %d B payload tree",
		detector, tuple, detector-tuple, payload)
	// 787 B with Go 1.24's maps, 536 B of it the tuple: eight 56 B slots
	// of a name and a 40 B Value, and the map header. It was 899 B while a
	// Value took 48 B and an occurrence kept its start time.
	if detector > 832 {
		t.Errorf("a pending initiator costs %d B in the detector, want at most 832", detector)
	}
}
