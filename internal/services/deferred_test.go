package services

import (
	"runtime"
	"strconv"
	"testing"

	"repro/internal/events"
	"repro/internal/protocol"
	"repro/internal/snoop"
	"repro/internal/xmltree"
)

// TestDeferredFollowUpsNotRetained: what a detection leaves to run goes to
// the publishing goroutine, which runs it before Publish returns, and
// nothing a detector keeps holds on to it. Here 10⁴ SNOOP initiators stay
// pending while a second rule detects each of them, and every run holds a
// 4 KiB buffer: were the runs pinned by the pending events, the live heap
// would grow by 40 MiB.
func TestDeferredFollowUpsNotRetained(t *testing.T) {
	const initiators, pad = 10_000, 4 << 10
	stream := events.NewStream()
	ran := 0
	h := NewSnoopService(stream, &Deliverer{Admit: func(*protocol.Answer) func() {
		buf := make([]byte, pad)
		return func() {
			buf[0] = 1
			ran++
		}
	}})
	defer h.Close()
	register(t, h, "pending", `<snoop:seq xmlns:snoop="`+snoop.NS+`" context="chronicle">
		<snoop:event><a k="$K"/></snoop:event>
		<snoop:event><b k="$K"/></snoop:event>
	</snoop:seq>`, "")
	register(t, h, "each", `<snoop:event xmlns:snoop="`+snoop.NS+`"><a k="$K"/></snoop:event>`, "")

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range initiators {
		e := xmltree.NewElement("", "a")
		e.SetAttr("", "k", strconv.Itoa(i))
		stream.Publish(events.New(e))
		if ran != i+1 {
			t.Fatalf("Publish %d returned after %d runs, want %d", i, ran, i+1)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	grown := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if pinned := int64(initiators * pad); grown > pinned/2 {
		t.Errorf("live heap grew by %d KiB with %d initiators pending; the runs alone hold %d KiB",
			grown>>10, initiators, pinned>>10)
	}
	t.Logf("live heap grew by %d KiB with %d initiators pending", grown>>10, initiators)
}
