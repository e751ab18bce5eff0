package winlang

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/events"
	"repro/internal/xmltree"
)

func expr(t *testing.T, src string) *Expr {
	t.Helper()
	e, err := Parse(xmltree.MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func ev(name string, sec int64, attrs ...string) events.Event {
	e := xmltree.NewElement("", name)
	for i := 0; i+1 < len(attrs); i += 2 {
		e.SetAttr("", attrs[i], attrs[i+1])
	}
	return events.Event{Payload: e, Seq: uint64(sec), Time: time.Unix(sec, 0)}
}

const threeIn10 = `<win:atleast xmlns:win="` + NS + `" n="3" within="10s"><f user="$U"/></win:atleast>`

func TestParseErrors(t *testing.T) {
	bad := []string{
		`<wrong/>`,
		`<win:atleast xmlns:win="` + NS + `" n="0" within="5s"><f/></win:atleast>`,
		`<win:atleast xmlns:win="` + NS + `" n="x" within="5s"><f/></win:atleast>`,
		`<win:atleast xmlns:win="` + NS + `" n="2" within="-1s"><f/></win:atleast>`,
		`<win:atleast xmlns:win="` + NS + `" n="2" within="5s"></win:atleast>`,
		`<win:atleast xmlns:win="` + NS + `" n="2" within="5s"><a/><b/></win:atleast>`,
	}
	for _, src := range bad {
		if _, err := Parse(xmltree.MustParse(src)); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestWindowCounting(t *testing.T) {
	var got []Detection
	d := NewDetector(expr(t, threeIn10), func(x Detection) { got = append(got, x) })
	d.Feed(ev("f", 1, "user", "alice"))
	d.Feed(ev("f", 3, "user", "alice"))
	if len(got) != 0 {
		t.Fatal("two events must not fire n=3")
	}
	d.Feed(ev("f", 5, "user", "alice"))
	if len(got) != 1 {
		t.Fatalf("detections = %d", len(got))
	}
	if got[0].Bindings["U"].AsString() != "alice" || len(got[0].Constituents) != 3 {
		t.Errorf("detection = %+v", got[0])
	}
	// Consumed: the next event starts a fresh count.
	d.Feed(ev("f", 6, "user", "alice"))
	if len(got) != 1 {
		t.Fatal("window must be consumed after detection")
	}
}

func TestWindowExpiry(t *testing.T) {
	var got []Detection
	d := NewDetector(expr(t, threeIn10), func(x Detection) { got = append(got, x) })
	d.Feed(ev("f", 1, "user", "bob"))
	d.Feed(ev("f", 2, "user", "bob"))
	d.Feed(ev("f", 30, "user", "bob")) // first two expired
	if len(got) != 0 {
		t.Fatalf("expired events counted: %+v", got)
	}
	d.Feed(ev("f", 31, "user", "bob"))
	d.Feed(ev("f", 32, "user", "bob"))
	if len(got) != 1 {
		t.Fatalf("detections = %d", len(got))
	}
}

func TestPerBindingBuckets(t *testing.T) {
	var got []Detection
	d := NewDetector(expr(t, threeIn10), func(x Detection) { got = append(got, x) })
	// Interleaved users: only alice reaches 3.
	d.Feed(ev("f", 1, "user", "alice"))
	d.Feed(ev("f", 2, "user", "eve"))
	d.Feed(ev("f", 3, "user", "alice"))
	d.Feed(ev("f", 4, "user", "eve"))
	d.Feed(ev("f", 5, "user", "alice"))
	if len(got) != 1 || got[0].Bindings["U"].AsString() != "alice" {
		t.Fatalf("detections = %+v", got)
	}
}

// TestConsumedWindowsLeaveNoBuckets: every distinct binding key used to
// leave an emptied bucket behind after its window was consumed, so the
// detector's state grew with the number of users ever seen.
func TestConsumedWindowsLeaveNoBuckets(t *testing.T) {
	detections := 0
	d := NewDetector(expr(t, `<win:atleast xmlns:win="`+NS+`" n="1" within="10s"><f user="$U"/></win:atleast>`),
		func(Detection) { detections++ })
	const users = 10_000
	for i := 0; i < users; i++ {
		d.Feed(ev("f", int64(i), "user", fmt.Sprintf("u%d", i)))
	}
	if detections != users || len(d.buckets) != 0 {
		t.Fatalf("%d detections, %d buckets left; want %d and 0", detections, len(d.buckets), users)
	}
}

// TestExpiredBucketsAreSwept: 10⁴ keys each seen once stay below n, so no
// detection consumes their buckets; one event past the window must drop
// them all, or the detector's state grows with every key ever seen.
func TestExpiredBucketsAreSwept(t *testing.T) {
	d := NewDetector(expr(t, threeIn10), func(x Detection) { t.Fatalf("unexpected detection %+v", x) })
	const users = 10_000
	for i := 0; i < users; i++ {
		d.Feed(ev("f", 1, "user", fmt.Sprintf("u%d", i)))
	}
	if len(d.buckets) != users {
		t.Fatalf("%d buckets inside the window, want %d", len(d.buckets), users)
	}
	d.Feed(ev("f", 12, "user", "late"))
	if len(d.buckets) > 1 {
		t.Fatalf("%d buckets left one event past the window, want at most 1", len(d.buckets))
	}
	// The sweep keeps live matches: bob's two events inside one window
	// still count towards his third.
	var got []Detection
	d = NewDetector(expr(t, threeIn10), func(x Detection) { got = append(got, x) })
	d.Feed(ev("f", 1, "user", "bob"))
	d.Feed(ev("f", 9, "user", "bob"))
	d.Feed(ev("f", 11, "user", "eve")) // sweeps: bob's first match expires, his second stays
	d.Feed(ev("f", 12, "user", "bob"))
	if len(got) != 0 {
		t.Fatalf("expired match counted: %+v", got)
	}
	d.Feed(ev("f", 13, "user", "bob"))
	if len(got) != 1 || len(got[0].Constituents) != 3 {
		t.Fatalf("detections = %+v, want one of bob's events at 9, 12 and 13", got)
	}
}
