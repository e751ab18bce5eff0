package system

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/events"
	"repro/internal/grh"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/ruleml"
	"repro/internal/services"
	"repro/internal/xmltree"
)

// The tests below pin how rule instances are scheduled: detection and
// admission in stream order, each instance run on the goroutine of the
// Publish or PublishBatch call that sequenced its event. CI repeats them
// under the race detector.

const gateNS = "urn:test:gate"

// gatedSystem wires a system with one rule, "g": on <t:ping x="$X"/> it
// queries an in-process service, which calls gate with the $X of every
// tuple before echoing its bindings, then sends <t:pong x="$X"/>.
func gatedSystem(t *testing.T, cfg Config, gate func(x string) error) *System {
	t.Helper()
	sys, err := NewLocal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	svc := grh.ServiceFunc(func(req *protocol.Request) (*protocol.Answer, error) {
		for _, tu := range req.Bindings.Tuples() {
			if err := gate(tu["X"].AsString()); err != nil {
				return nil, err
			}
		}
		return protocol.NewAnswer(req.RuleID, req.Component, req.Bindings), nil
	})
	if err := sys.GRH.Register(grh.Descriptor{Language: gateNS, Kinds: []ruleml.ComponentKind{ruleml.QueryComponent},
		FrameworkAware: true, Local: svc}); err != nil {
		t.Fatal(err)
	}
	rule := ruleml.MustParse(`<eca:rule xmlns:eca="` + protocol.ECANS + `" xmlns:t="` + tNS + `" xmlns:g="` + gateNS + `" id="g">
	  <eca:event><t:ping x="$X"/></eca:event>
	  <eca:query><g:pass>$X</g:pass></eca:query>
	  <eca:action><t:pong x="$X"/></eca:action>
	</eca:rule>`)
	if err := sys.Engine.Register(rule); err != nil {
		t.Fatal(err)
	}
	return sys
}

func pingPayload(x string) *xmltree.Node {
	e := xmltree.NewElement(tNS, "ping")
	e.SetAttr("", "x", x)
	return e
}

// TestDeferredInstancesOverlap: the instances of two concurrently published
// events are inside the query service at the same time. While one
// dispatcher ran whole instances, the first waited for the second until it
// timed out.
func TestDeferredInstancesOverlap(t *testing.T) {
	both := make(chan struct{})
	var inside atomic.Int32
	sys := gatedSystem(t, Config{}, func(string) error {
		if inside.Add(1) == 2 {
			close(both)
		}
		select {
		case <-both:
			return nil
		case <-time.After(5 * time.Second):
			return errors.New("the other instance never ran alongside this one")
		}
	})
	defer sys.Close()
	var wg sync.WaitGroup
	for i := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sys.Stream.Publish(events.New(pingPayload(strconv.Itoa(i))))
		}()
	}
	wg.Wait()
	if st := sys.Engine.Stats(); st.InstancesCompleted != 2 {
		t.Fatalf("stats = %+v, want both instances completed", st)
	}
}

// TestDeferredPublishBatchReturnsAfterItsActions: concurrent publishers
// each find all actions of their batch sent when PublishBatch returns, and
// each publisher's actions are sent in the Seq order of its events.
func TestDeferredPublishBatchReturnsAfterItsActions(t *testing.T) {
	sys := gatedSystem(t, Config{}, func(string) error { runtime.Gosched(); return nil })
	defer sys.Close()
	var mu sync.Mutex
	sent := map[string][]int{} // publisher → event numbers of its pongs, in send order
	sys.Notifier.OnSend(func(n Notification) {
		p, i, _ := strings.Cut(n.Message.AttrValue("", "x"), "/")
		k, _ := strconv.Atoi(i)
		mu.Lock()
		sent[p] = append(sent[p], k)
		mu.Unlock()
	})
	const publishers, batches, size = 4, 10, 8
	var wg sync.WaitGroup
	for p := range publishers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			name := strconv.Itoa(p)
			for b := range batches {
				evs := make([]events.Event, size)
				for i := range evs {
					evs[i] = events.New(pingPayload(fmt.Sprintf("%s/%d", name, b*size+i)))
				}
				sys.Stream.PublishBatch(evs)
				mu.Lock()
				got := len(sent[name])
				mu.Unlock()
				if got != (b+1)*size {
					t.Errorf("publisher %s: batch %d returned with %d actions sent, want %d", name, b, got, (b+1)*size)
					return
				}
			}
		}()
	}
	wg.Wait()
	for p, got := range sent {
		for i, k := range got {
			if k != i {
				t.Fatalf("publisher %s: actions sent for events %v, not in Seq order", p, got)
			}
		}
	}
}

// TestDeferredTraceIDsFollowSeq: instances are admitted in stream order,
// so under concurrent publishers the trace ids of one rule's instances
// still follow the Seq of the events that created them. Each event's
// admission time identifies it in its instance's lifecycle span.
func TestDeferredTraceIDsFollowSeq(t *testing.T) {
	hub := obs.NewHub()
	sys := gatedSystem(t, Config{Obs: hub}, func(string) error { runtime.Gosched(); return nil })
	defer sys.Close()
	const publishers, per = 4, 25
	base := time.Now().Add(-time.Hour)
	seqOf := make([]uint64, publishers*per) // event number → Seq
	var wg sync.WaitGroup
	for p := range publishers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range per {
				n := p*per + i
				ev := events.NewAdmitted(pingPayload(strconv.Itoa(n)), base.Add(time.Duration(n)*time.Second))
				seqOf[n] = sys.Stream.Publish(ev).Seq
			}
		}()
	}
	wg.Wait()
	type instance struct{ seq, id uint64 }
	var got []instance
	for _, tr := range hub.Traces().Snapshot() {
		if tr.Rule != "g" {
			continue
		}
		_, num, _ := strings.Cut(tr.ID, "#")
		id, err := strconv.ParseUint(num, 10, 64)
		if err != nil {
			t.Fatalf("trace id %q: %v", tr.ID, err)
		}
		for _, sp := range tr.Spans {
			if sp.Stage == "lifecycle" {
				got = append(got, instance{seqOf[int(sp.Start.Sub(base)/time.Second)], id})
			}
		}
	}
	if len(got) != publishers*per {
		t.Fatalf("%d completed instances traced, want %d", len(got), publishers*per)
	}
	sort.Slice(got, func(i, j int) bool { return got[i].seq < got[j].seq })
	for i := 1; i < len(got); i++ {
		if got[i].id <= got[i-1].id {
			t.Fatalf("event Seq %d got trace #%d, but the earlier Seq %d got #%d", got[i].seq, got[i].id, got[i-1].seq, got[i-1].id)
		}
	}
}

// TestDeferredCloseDrains: System.Close waits for an instance that was
// admitted and is still running on its publisher's goroutine.
func TestDeferredCloseDrains(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	sys := gatedSystem(t, Config{}, func(string) error {
		close(entered)
		<-release
		return nil
	})
	published := make(chan struct{})
	go func() {
		sys.Stream.Publish(events.New(pingPayload("1")))
		close(published)
	}()
	<-entered
	closed := make(chan struct{})
	go func() {
		sys.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while an admitted instance was still running")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	<-closed
	<-published
	if n := sys.Notifier.Count(); n != 1 {
		t.Fatalf("%d actions sent, want the drained instance's 1", n)
	}
}

// TestDeferredRaiseDelivered: an act:raise from an instance that runs on its
// publisher's goroutine is delivered and fires the rule it triggers: at
// once on an idle stream, and by the time every publisher has returned
// under concurrent ones.
func TestDeferredRaiseDelivered(t *testing.T) {
	sys, err := NewLocal(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	for _, src := range []string{
		`<eca:rule xmlns:eca="` + protocol.ECANS + `" xmlns:t="` + tNS + `" xmlns:act="` + services.ActionNS + `" id="raise">
		  <eca:event><t:ping x="$X"/></eca:event>
		  <eca:action><act:raise><t:raised x="$X"/></act:raise></eca:action>
		</eca:rule>`,
		`<eca:rule xmlns:eca="` + protocol.ECANS + `" xmlns:t="` + tNS + `" id="raised">
		  <eca:event><t:raised x="$X"/></eca:event>
		  <eca:action><t:pong x="$X"/></eca:action>
		</eca:rule>`,
	} {
		if err := sys.Engine.Register(ruleml.MustParse(src)); err != nil {
			t.Fatal(err)
		}
	}
	sys.Stream.Publish(events.New(pingPayload("alone")))
	if n := sys.Notifier.Count(); n != 1 {
		t.Fatalf("%d actions sent when Publish returned on an idle stream, want 1", n)
	}
	const publishers, per = 4, 25
	var wg sync.WaitGroup
	for p := range publishers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range per {
				sys.Stream.Publish(events.New(pingPayload(fmt.Sprintf("%d/%d", p, i))))
			}
		}()
	}
	wg.Wait()
	if n := sys.Notifier.Count(); n != 1+publishers*per {
		t.Fatalf("%d actions sent, want %d: a raised event was lost", n, 1+publishers*per)
	}
}
