package services

import (
	"fmt"
	"hash/fnv"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/events"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/snoop"
	"repro/internal/xmltree"
)

// keysOnDistinctWorkers finds n rule ids whose registry keys (ruleID +
// "/e") land on n distinct partitions of the pool.
func keysOnDistinctWorkers(t *testing.T, p *DetectorPool, n int) []string {
	t.Helper()
	seen := map[int]string{}
	for i := 0; i < 10_000 && len(seen) < n; i++ {
		id := fmt.Sprintf("r%d", i)
		w := p.Pick(id + "/e")
		if _, ok := seen[w]; !ok {
			seen[w] = id
		}
	}
	if len(seen) < n {
		t.Fatalf("could not find %d distinct partitions", n)
	}
	out := make([]string, 0, n)
	for _, id := range seen {
		out = append(out, id)
	}
	return out
}

func TestDetectorPoolPickStable(t *testing.T) {
	p := NewDetectorPool(4, nil)
	defer p.Close()
	if p.Workers() != 4 {
		t.Fatalf("workers = %d", p.Workers())
	}
	highBit := false
	for _, k := range []string{"a", "b/c", "rule-17/event[1]"} {
		if p.Pick(k) != p.Pick(k) {
			t.Errorf("Pick(%q) unstable", k)
		}
		// "b/c" hashes to 2288284455 >= 2^31: reduced as an int it is -1 on
		// 32-bit platforms (GOARCH=386 go test reproduces it).
		h := fnv.New32a()
		h.Write([]byte(k))
		highBit = highBit || h.Sum32() >= 1<<31
		if w, want := p.Pick(k), int(h.Sum32()%4); w != want {
			t.Errorf("Pick(%q) = %d, want %d", k, w, want)
		}
	}
	if !highBit {
		t.Error("no key with a hash >= 2^31 — the 32-bit case is not covered")
	}
}

func TestDetectorPoolEnqueueOrder(t *testing.T) {
	p := NewDetectorPool(2, nil)
	var mu sync.Mutex
	var got []int
	const n = 4 * DefaultPartitionQueue // more than the queue holds: Enqueue must block, not drop
	for i := 0; i < n; i++ {
		i := i
		p.Enqueue(1, func() func() {
			mu.Lock()
			got = append(got, i)
			mu.Unlock()
			return nil
		})
	}
	p.Close() // drains
	if len(got) != n {
		t.Fatalf("ran %d tasks, want %d", len(got), n)
	}
	for i := range got {
		if got[i] != i {
			t.Fatalf("task %d ran out of order: %v...", i, got[:i+1])
		}
	}
}

// TestSnoopSlowDeliveryDoesNotBlockOtherPartitions is satellite coverage
// for the narrowed lock: the seed held the service-wide mutex across
// deliver.Deliver, so one rule's slow subscriber blocked detection of the
// NEXT event for every other rule. With partitioned fan-out, rule B's
// detection of event N+1 completes while rule A's delivery of event N is
// still in flight.
func TestSnoopSlowDeliveryDoesNotBlockOtherPartitions(t *testing.T) {
	pool := NewDetectorPool(4, nil)
	defer pool.Close()
	ids := keysOnDistinctWorkers(t, pool, 2)
	slowID, fastID := ids[0], ids[1]

	slowEntered := make(chan struct{})
	release := make(chan struct{})
	fastGot := make(chan *protocol.Answer, 1)
	stream := events.NewStream()
	s := NewSnoopService(stream, &Deliverer{Local: func(a *protocol.Answer) {
		switch a.RuleID {
		case slowID:
			close(slowEntered)
			<-release // a very slow subscriber
		case fastID:
			fastGot <- a
		}
	}}, WithDetectorPool(pool))
	defer s.Close()

	reg := func(id, name string) {
		expr := xmltree.MustParse(`<snoop:event xmlns:snoop="` + snoop.NS + `"><` + name + `/></snoop:event>`).Root()
		if _, err := s.Handle(&protocol.Request{Kind: protocol.RegisterEvent, RuleID: id, Component: "e", Expression: expr}); err != nil {
			t.Fatal(err)
		}
	}
	reg(slowID, "slow")
	reg(fastID, "fast")

	// Event N matches the slow rule; its delivery parks on the release
	// channel inside that rule's partition worker.
	stream.Publish(events.New(xmltree.NewElement("", "slow")))
	select {
	case <-slowEntered:
	case <-time.After(5 * time.Second):
		t.Fatal("slow rule never detected its event")
	}
	// Event N+1 matches the fast rule on another partition; its detection
	// and delivery must complete while the slow delivery is still blocked.
	stream.Publish(events.New(xmltree.NewElement("", "fast")))
	select {
	case a := <-fastGot:
		if a.RuleID != fastID {
			t.Fatalf("unexpected answer %+v", a)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("fast rule's detection was blocked behind the slow delivery")
	}
	close(release)
}

// detectorWorkers are the pool shapes every detection property must hold
// for: inline (the zero-worker pool), one worker, several.
var detectorWorkers = []int{0, 1, 4}

// awaitCount polls n() until it reaches want or five seconds pass:
// detection past a worker's queue is asynchronous.
func awaitCount(want int, n func() int) {
	for deadline := time.Now().Add(5 * time.Second); n() < want && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
}

// TestSnoopSequenceNoMisfireUnderConcurrentPublishers is the SNOOP-level
// regression for the out-of-order Publish family: detectors a;b and a∧b
// (joined on p) fed from racing publishers must fire exactly once per
// pair, and — for every pool shape — in the order the stream sequenced the
// terminating b events. Before the ordered dispatch stage, a pair's b could
// reach the detector before its a, silently dropping the occurrence.
func TestSnoopSequenceNoMisfireUnderConcurrentPublishers(t *testing.T) {
	for _, workers := range detectorWorkers {
		t.Run(fmt.Sprintf("W=%d", workers), func(t *testing.T) {
			const (
				publishers = 8
				pairsPer   = 40
			)
			pool := NewDetectorPool(workers, nil)
			defer pool.Close()
			var mu sync.Mutex
			got := map[string][]string{} // rule → $P of each detection, in delivery order
			total := 0
			stream := events.NewStream()
			var streamOrder []string // p of every b, in Seq order
			var lastSeq uint64
			stream.Subscribe(func(ev events.Event) {
				mu.Lock()
				defer mu.Unlock()
				if ev.Seq <= lastSeq {
					t.Errorf("stream delivered Seq %d after %d", ev.Seq, lastSeq)
				}
				lastSeq = ev.Seq
				if ev.Payload.Name.Local == "b" {
					streamOrder = append(streamOrder, ev.Payload.AttrValue("", "p"))
				}
			})
			s := NewSnoopService(stream, &Deliverer{Local: func(a *protocol.Answer) {
				mu.Lock()
				got[a.RuleID] = append(got[a.RuleID], a.Rows[0].Tuple["P"].AsString())
				total++
				mu.Unlock()
			}}, WithDetectorPool(pool))
			defer s.Close()
			rules := []string{"seq", "and"} // pinned to partitions 0 and 2 of 4
			for _, op := range rules {
				expr := xmltree.MustParse(`<snoop:` + op + ` xmlns:snoop="` + snoop.NS + `" context="chronicle">
					<snoop:event><a p="$P"/></snoop:event>
					<snoop:event><b p="$P"/></snoop:event>
				</snoop:` + op + `>`).Root()
				if _, err := s.Handle(&protocol.Request{Kind: protocol.RegisterEvent, RuleID: op, Component: "e", Expression: expr}); err != nil {
					t.Fatal(err)
				}
			}
			var wg sync.WaitGroup
			for p := 0; p < publishers; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					for i := 0; i < pairsPer; i++ {
						tag := fmt.Sprintf("%d-%d", p, i)
						ea := xmltree.NewElement("", "a")
						ea.SetAttr("", "p", tag)
						stream.Publish(events.New(ea)) // returns after ordered dispatch
						eb := xmltree.NewElement("", "b")
						eb.SetAttr("", "p", tag)
						stream.Publish(events.New(eb)) // so b's Seq > a's Seq, globally
					}
				}(p)
			}
			wg.Wait()
			awaitCount(2*publishers*pairsPer, func() int {
				mu.Lock()
				defer mu.Unlock()
				return total
			})
			mu.Lock()
			defer mu.Unlock()
			if len(streamOrder) != publishers*pairsPer {
				t.Fatalf("stream delivered %d b events, want %d", len(streamOrder), publishers*pairsPer)
			}
			for _, rule := range rules {
				if !slices.Equal(got[rule], streamOrder) {
					t.Errorf("rule %s: %d detections, not the %d terminators in stream order (misfire or reordering under concurrency)",
						rule, len(got[rule]), len(streamOrder))
				}
			}
		})
	}
}

// TestEventMatcherPartitioned: the atomic matcher shards its patterns
// across the pool's partitions and, for every pool shape, delivers each
// rule the same detection sequence.
func TestEventMatcherPartitioned(t *testing.T) {
	const rules = 9
	want := []string{"0", "1", "2", "3", "4"} // the rounds, in publication order
	for _, workers := range detectorWorkers {
		t.Run(fmt.Sprintf("W=%d", workers), func(t *testing.T) {
			pool := NewDetectorPool(workers, obs.NewHub())
			defer pool.Close()
			var mu sync.Mutex
			got := map[string][]string{} // rule → $N of each detection, in delivery order
			total := 0
			stream := events.NewStream()
			m := NewEventMatcher(stream, &Deliverer{Local: func(a *protocol.Answer) {
				mu.Lock()
				got[a.RuleID] = append(got[a.RuleID], a.Rows[0].Tuple["N"].AsString())
				total++
				mu.Unlock()
			}}, WithDetectorPool(pool))
			defer m.Close()
			for i := 0; i < rules; i++ {
				reg := &protocol.Request{
					Kind: protocol.RegisterEvent, RuleID: fmt.Sprintf("r%d", i), Component: "e",
					Expression: xmltree.MustParse(fmt.Sprintf(`<ev%d n="$N"/>`, i)).Root(),
				}
				if _, err := m.Handle(reg); err != nil {
					t.Fatal(err)
				}
			}
			if m.Registrations() != rules {
				t.Fatalf("registrations = %d", m.Registrations())
			}
			for _, round := range want {
				for i := 0; i < rules; i++ {
					ev := xmltree.NewElement("", fmt.Sprintf("ev%d", i))
					ev.SetAttr("", "n", round)
					stream.Publish(events.New(ev))
				}
			}
			awaitCount(rules*len(want), func() int {
				mu.Lock()
				defer mu.Unlock()
				return total
			})
			mu.Lock()
			defer mu.Unlock()
			for i := 0; i < rules; i++ {
				if id := fmt.Sprintf("r%d", i); !slices.Equal(got[id], want) {
					t.Fatalf("rule %s detected rounds %v, want %v", id, got[id], want)
				}
			}
			// Unregister goes to the same shard the registration was pinned to.
			if _, err := m.Handle(&protocol.Request{Kind: protocol.UnregisterEvent, RuleID: "r0", Component: "e"}); err != nil {
				t.Fatal(err)
			}
			if m.Registrations() != rules-1 {
				t.Fatalf("registrations after unregister = %d", m.Registrations())
			}
		})
	}
}

// TestSnoopAdvanceRoutedThroughWorkers: in pool mode a clock tick
// serializes with the pinned detector's event feed and still fires
// elapsed periodic occurrences.
func TestSnoopAdvanceRoutedThroughWorkers(t *testing.T) {
	pool := NewDetectorPool(2, nil)
	defer pool.Close()
	fired := make(chan *protocol.Answer, 16)
	stream := events.NewStream()
	s := NewSnoopService(stream, &Deliverer{Local: func(a *protocol.Answer) { fired <- a }},
		WithDetectorPool(pool))
	defer s.Close()
	expr := xmltree.MustParse(`<snoop:periodic interval="10s" xmlns:snoop="` + snoop.NS + `">
		<snoop:event><start/></snoop:event>
		<snoop:event><stop/></snoop:event>
	</snoop:periodic>`).Root()
	if _, err := s.Handle(&protocol.Request{Kind: protocol.RegisterEvent, RuleID: "p", Component: "e", Expression: expr}); err != nil {
		t.Fatal(err)
	}
	base := time.Unix(1000, 0)
	stream.Publish(events.Event{Payload: xmltree.NewElement("", "start"), Time: base})
	s.Advance(base.Add(25 * time.Second))
	for i := 0; i < 2; i++ {
		select {
		case <-fired:
		case <-time.After(5 * time.Second):
			t.Fatalf("periodic occurrence %d never fired through the worker", i+1)
		}
	}
	select {
	case a := <-fired:
		t.Fatalf("unexpected extra occurrence %+v", a)
	case <-time.After(50 * time.Millisecond):
	}
}

// TestDetectorPoolMetrics: partition counters are registered and advance.
func TestDetectorPoolMetrics(t *testing.T) {
	h := obs.NewHub()
	pool := NewDetectorPool(2, h)
	done := make(chan struct{})
	pool.Enqueue(0, func() func() { close(done); return nil })
	<-done
	pool.Close()
	var b strings.Builder
	h.Metrics().WritePrometheus(&b)
	if !containsLine(b.String(), `snoop_partition_events_total{partition="0"} 1`) {
		t.Fatalf("missing partition counter in:\n%s", b.String())
	}
}

func containsLine(dump, want string) bool {
	for _, line := range splitLines(dump) {
		if line == want {
			return true
		}
	}
	return false
}

func splitLines(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}
