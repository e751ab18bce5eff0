package events

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/xmltree"
)

// numbered builds a small event payload carrying a producer/index tag.
func numbered(tag string) Event {
	e := xmltree.NewElement("", "e")
	e.SetAttr("", "tag", tag)
	return New(e)
}

// TestStreamOrderedUnderConcurrentPublishers is the regression test for the
// out-of-order Publish family: the seed stamped Seq under the lock but
// invoked subscribers outside it, so two racing publishers could reach a
// subscriber out of stream order. Every subscriber must now observe
// strictly increasing sequence numbers, no matter how many goroutines
// hammer Publish. Run with -race: the per-subscriber `last` variables are
// deliberately unsynchronized, so overlapping deliveries would also be
// flagged as a data race.
func TestStreamOrderedUnderConcurrentPublishers(t *testing.T) {
	const (
		publishers = 8
		perPub     = 250
		subCount   = 3
	)
	s := NewStream()
	type subState struct {
		last  uint64
		seen  int
		viols int
	}
	states := make([]*subState, subCount)
	for i := range states {
		st := &subState{}
		states[i] = st
		s.Subscribe(func(ev Event) {
			if ev.Seq <= st.last {
				st.viols++
			}
			st.last = ev.Seq
			st.seen++
		})
	}
	var wg sync.WaitGroup
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perPub; i++ {
				s.Publish(numbered(fmt.Sprintf("%d/%d", p, i)))
			}
		}(p)
	}
	wg.Wait()
	for i, st := range states {
		if st.viols != 0 {
			t.Errorf("subscriber %d: %d out-of-order deliveries", i, st.viols)
		}
		if st.seen != publishers*perPub {
			t.Errorf("subscriber %d: saw %d events, want %d", i, st.seen, publishers*perPub)
		}
	}
}

// TestPublishReturnsAfterDelivery: the synchronous contract — once Publish
// returns, every subscriber has seen the event — must hold for concurrent
// publishers too, since POST /events acknowledges the
// journal right after Publish returns.
func TestPublishReturnsAfterDelivery(t *testing.T) {
	s := NewStream()
	var delivered sync.Map
	s.Subscribe(func(ev Event) { delivered.Store(ev.Seq, true) })
	var wg sync.WaitGroup
	for p := 0; p < 8; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				ev := s.Publish(numbered("x"))
				if _, ok := delivered.Load(ev.Seq); !ok {
					t.Errorf("Publish returned before seq %d was delivered", ev.Seq)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestPublishBatchSequencesAtomically: a batch takes consecutive sequence
// numbers even while single-event publishers race it, and the whole batch
// is delivered when PublishBatch returns.
func TestPublishBatchSequencesAtomically(t *testing.T) {
	s := NewStream()
	var seen atomic.Int64
	var last uint64
	s.Subscribe(func(ev Event) {
		if ev.Seq <= last {
			t.Errorf("out of order: %d after %d", ev.Seq, last)
		}
		last = ev.Seq
		seen.Add(1)
	})
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				s.Publish(numbered("single"))
			}
		}()
	}
	for b := 0; b < 20; b++ {
		batch := make([]Event, 7)
		for i := range batch {
			batch[i] = numbered("batch")
		}
		out := s.PublishBatch(batch)
		for i := 1; i < len(out); i++ {
			if out[i].Seq != out[i-1].Seq+1 {
				t.Fatalf("batch seqs not consecutive: %d then %d", out[i-1].Seq, out[i].Seq)
			}
		}
	}
	wg.Wait()
	if got := seen.Load(); got != 4*50+20*7 {
		t.Errorf("seen = %d, want %d", got, 4*50+20*7)
	}
}

// TestReentrantPublishIsDeferredInOrder: a subscriber publishing from
// inside its callback (act:raise) uses PublishDetached; the raised event is
// delivered after the current event's dispatch completes — so every
// subscriber still sees both events in Seq order — and before the outer
// Publish returns.
func TestReentrantPublishIsDeferredInOrder(t *testing.T) {
	s := NewStream()
	var order []string
	var raised Event
	s.Subscribe(func(ev Event) {
		tag, _ := ev.Payload.Attr("", "tag")
		order = append(order, "h1:"+tag)
		if tag == "outer" {
			raised = s.PublishDetached(numbered("raised"))
		}
	})
	s.Subscribe(func(ev Event) {
		tag, _ := ev.Payload.Attr("", "tag")
		order = append(order, "h2:"+tag)
	})
	outer := s.Publish(numbered("outer"))
	want := []string{"h1:outer", "h2:outer", "h1:raised", "h2:raised"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if raised.Seq != outer.Seq+1 {
		t.Errorf("raised seq = %d, outer = %d", raised.Seq, outer.Seq)
	}
}

// TestPublishDetachedFromIdleStream delivers synchronously like Publish
// when no dispatch is running.
func TestPublishDetachedFromIdleStream(t *testing.T) {
	s := NewStream()
	var got []uint64
	s.Subscribe(func(ev Event) { got = append(got, ev.Seq) })
	ev := s.PublishDetached(numbered("d"))
	if len(got) != 1 || got[0] != ev.Seq {
		t.Fatalf("got = %v, want [%d]", got, ev.Seq)
	}
}

// TestSubscribeChurnKeepsOrder: churned subscriptions must not disturb the
// subscription-order delivery contract, and cancels must really remove.
func TestSubscribeChurnKeepsOrder(t *testing.T) {
	s := NewStream()
	var order []int
	s.Subscribe(func(Event) { order = append(order, 1) })
	cancel2 := s.Subscribe(func(Event) { order = append(order, 2) })
	s.Subscribe(func(Event) { order = append(order, 3) })
	cancel2()
	cancel2() // a second cancel is a no-op
	s.Subscribe(func(Event) { order = append(order, 4) })
	s.Publish(numbered("x"))
	want := []int{1, 3, 4}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// TestOriginLater: what a subscriber hands to Origin.Later runs on the
// publisher after all of its call's events were delivered, in the order
// handed over, before the call returns; for a detached event, or through
// the zero Origin, it runs at once.
func TestOriginLater(t *testing.T) {
	s := NewStream()
	var log []string
	s.SubscribeOrigin(func(ev Event, o Origin) {
		log = append(log, fmt.Sprint("deliver ", ev.Seq))
		o.Later(func() { log = append(log, fmt.Sprint("run ", ev.Seq)) })
	})
	s.PublishBatch([]Event{numbered("a"), numbered("b"), numbered("c")})
	s.PublishDetached(numbered("d"))
	Origin{}.Later(func() { log = append(log, "zero") })
	want := "[deliver 1 deliver 2 deliver 3 run 1 run 2 run 3 deliver 4 run 4 zero]"
	if got := fmt.Sprint(log); got != want {
		t.Errorf("log = %s, want %s", got, want)
	}
	if len(s.later) != 0 {
		t.Errorf("%d publish calls left follow-ups behind", len(s.later))
	}
}

// TestPublishSharesSubscriberSlice: a publish takes the stream's
// copy-on-write subscriber slice as its snapshot instead of building one,
// so what it allocates does not grow with the subscribers — the one
// allocation left is the delivery queue's backing array — and a
// subscription made or cancelled while an event is queued does not change
// who receives that event.
func TestPublishSharesSubscriberSlice(t *testing.T) {
	for _, subs := range []int{1, 64} {
		s := NewStream()
		for i := 0; i < subs; i++ {
			s.Subscribe(func(Event) {})
		}
		ev := numbered("x")
		if got := testing.AllocsPerRun(200, func() { s.Publish(ev) }); got > 1 {
			t.Errorf("%d subscribers: %v allocs per Publish, want at most 1", subs, got)
		}
	}

	s := NewStream()
	var got []string
	var cancelB func()
	s.Subscribe(func(ev Event) {
		got = append(got, "a")
		if ev.Seq == 1 {
			// Event 2 is sequenced here, with subscribers {a, b}; the
			// changes below must reach event 3 only.
			s.PublishDetached(numbered("second"))
			cancelB()
			s.Subscribe(func(Event) { got = append(got, "c") })
			s.PublishDetached(numbered("third"))
		}
	})
	cancelB = s.Subscribe(func(Event) { got = append(got, "b") })
	s.Publish(numbered("first"))
	if want := "[a b a b a c]"; fmt.Sprint(got) != want {
		t.Errorf("deliveries = %v, want %s", got, want)
	}
}

// BenchmarkPublishAfterSubscribeChurn: the seed rebuilt the handler list by
// scanning ids 0..next, so heavy subscribe/unsubscribe churn made every
// later Publish O(total-ever-subscribed). The subscriber slice keeps it
// O(live).
func BenchmarkPublishAfterSubscribeChurn(b *testing.B) {
	s := NewStream()
	// Churn: 100k subscriptions come and go; 4 stay live.
	for i := 0; i < 100_000; i++ {
		cancel := s.Subscribe(func(Event) {})
		cancel()
	}
	var sink atomic.Int64
	for i := 0; i < 4; i++ {
		s.Subscribe(func(Event) { sink.Add(1) })
	}
	ev := numbered("bench")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Publish(ev)
	}
}
