package winlang

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/events"
	"repro/internal/protocol"
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

func TestServiceLifecycle(t *testing.T) {
	stream := events.NewStream()
	var answers []*protocol.Answer
	s := NewService(stream, func(a *protocol.Answer) { answers = append(answers, a) })
	defer s.Close()
	exprNode := xmltree.MustParse(threeIn10).Root()
	if _, err := s.Handle(&protocol.Request{Kind: protocol.RegisterEvent, RuleID: "r", Component: "e", Expression: exprNode}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		p := xmltree.NewElement("", "f")
		p.SetAttr("", "user", "alice")
		stream.Publish(events.New(p))
	}
	if len(answers) != 1 {
		t.Fatalf("answers = %d", len(answers))
	}
	row := answers[0].Rows[0]
	if row.Tuple["U"].AsString() != "alice" || len(row.Results) != 3 {
		t.Errorf("row = %+v", row)
	}
	if _, err := s.Handle(&protocol.Request{Kind: protocol.UnregisterEvent, RuleID: "r", Component: "e"}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Handle(&protocol.Request{Kind: protocol.Query}); err == nil {
		t.Error("query should be rejected")
	}
}

// TestServiceDetectionOrderIsRegistrationOrder registers 16 rules that all
// complete on the same event and checks that their answers arrive in
// registration order, every time; re-registering a rule moves it to the
// end. (Detectors held in a map answered in random order.)
func TestServiceDetectionOrderIsRegistrationOrder(t *testing.T) {
	const n = 16
	exprNode := xmltree.MustParse(`<win:atleast xmlns:win="` + NS + `" n="1" within="10s"><f user="$U"/></win:atleast>`).Root()
	fire := func(stream *events.Stream) {
		p := xmltree.NewElement("", "f")
		p.SetAttr("", "user", "alice")
		stream.Publish(events.New(p))
	}
	for run := 0; run < 50; run++ {
		stream := events.NewStream()
		var order []string
		s := NewService(stream, func(a *protocol.Answer) { order = append(order, a.RuleID) })
		var want []string
		register := func(id string) {
			if _, err := s.Handle(&protocol.Request{Kind: protocol.RegisterEvent, RuleID: id, Component: "event[1]", Expression: exprNode}); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < n; i++ {
			id := fmt.Sprintf("rule-%02d", (i*7)%n) // registration order ≠ id order
			register(id)
			want = append(want, id)
		}
		fire(stream)
		if fmt.Sprint(order) != fmt.Sprint(want) {
			t.Fatalf("run %d: answer order %v, registration order %v", run, order, want)
		}
		register(want[0])
		want = append(want[1:], want[0])
		order = nil
		fire(stream)
		if fmt.Sprint(order) != fmt.Sprint(want) {
			t.Fatalf("run %d: after re-registering, answer order %v, want %v", run, order, want)
		}
		s.Close()
	}
}
