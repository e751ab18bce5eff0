package services

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/bindings"
	"repro/internal/events"
	"repro/internal/protocol"
	"repro/internal/snoop"
	"repro/internal/winlang"
	"repro/internal/xmltree"
)

// hostedLanguage is one event language as the detection host runs it, with
// the expressions its conformance rows register.
type hostedLanguage struct {
	name    string
	compile events.Language
	// single detects every event named name, binding $P to its p attribute.
	single func(name string) string
	// composite detects once on stream (event name, p value pairs),
	// completing with the last event and binding $P to "x"; the detection's
	// constituents are the named events, oldest first.
	composite    string
	stream       [][2]string
	constituents []string
	// bad expressions fail to compile.
	bad []*xmltree.Node
}

var hostedLanguages = []hostedLanguage{
	{
		name:         "atomic",
		compile:      atomicEvents,
		single:       func(name string) string { return `<` + name + ` p="$P"/>` },
		composite:    `<b p="$P"/>`,
		stream:       [][2]string{{"a", "x"}, {"b", "x"}},
		constituents: []string{"b"},
		bad:          []*xmltree.Node{xmltree.NewDocument()}, // no root element
	},
	{
		name:    "snoop",
		compile: snoopEvents(nil),
		single: func(name string) string {
			return `<snoop:event xmlns:snoop="` + snoop.NS + `"><` + name + ` p="$P"/></snoop:event>`
		},
		composite: `<snoop:seq xmlns:snoop="` + snoop.NS + `" context="chronicle">
			<snoop:event><a p="$P"/></snoop:event>
			<snoop:event><b p="$P"/></snoop:event>
		</snoop:seq>`,
		stream:       [][2]string{{"a", "x"}, {"b", "y"}, {"b", "x"}}, // b y: incompatible join variable
		constituents: []string{"a", "b"},
		bad: []*xmltree.Node{
			xmltree.MustParse(`<snoop:seq xmlns:snoop="` + snoop.NS + `" context="zap">
				<snoop:event><a/></snoop:event><snoop:event><b/></snoop:event></snoop:seq>`).Root(),
			xmltree.MustParse(`<snoop:seq xmlns:snoop="` + snoop.NS + `"><snoop:event><a/></snoop:event></snoop:seq>`).Root(),
			xmltree.MustParse(`<a/>`).Root(), // not SNOOP markup
		},
	},
	{
		name:    "winlang",
		compile: winlang.Language,
		single: func(name string) string {
			return `<win:atleast xmlns:win="` + winlang.NS + `" n="1" within="1h"><` + name + ` p="$P"/></win:atleast>`
		},
		composite:    `<win:atleast xmlns:win="` + winlang.NS + `" n="3" within="1h"><a p="$P"/></win:atleast>`,
		stream:       [][2]string{{"a", "x"}, {"a", "y"}, {"a", "x"}, {"a", "x"}},
		constituents: []string{"a", "a", "a"},
		bad: []*xmltree.Node{
			xmltree.MustParse(`<win:atleast xmlns:win="` + winlang.NS + `" n="0" within="5s"><a/></win:atleast>`).Root(),
			xmltree.MustParse(`<a/>`).Root(),
		},
	},
}

// answers collects a host's local deliveries; safe for partition workers.
type answers struct {
	mu  sync.Mutex
	got []*protocol.Answer
}

func (c *answers) deliverer() *Deliverer {
	return &Deliverer{Local: func(a *protocol.Answer) {
		c.mu.Lock()
		c.got = append(c.got, a)
		c.mu.Unlock()
	}}
}

// take returns and forgets the answers delivered so far.
func (c *answers) take() []*protocol.Answer {
	c.mu.Lock()
	defer c.mu.Unlock()
	got := c.got
	c.got = nil
	return got
}

func ruleIDs(as []*protocol.Answer) []string {
	var ids []string
	for _, a := range as {
		ids = append(ids, a.RuleID)
	}
	return ids
}

func register(t *testing.T, h *DetectorHost, ruleID, src, replyTo string) {
	t.Helper()
	req := &protocol.Request{Kind: protocol.RegisterEvent, RuleID: ruleID, Component: "event[1]",
		Expression: xmltree.MustParse(src).Root(), ReplyTo: replyTo}
	if _, err := h.Handle(req); err != nil {
		t.Fatalf("register %s: %v", ruleID, err)
	}
}

func unregister(t *testing.T, h *DetectorHost, ruleID string) {
	t.Helper()
	if _, err := h.Handle(&protocol.Request{Kind: protocol.UnregisterEvent, RuleID: ruleID, Component: "event[1]"}); err != nil {
		t.Fatalf("unregister %s: %v", ruleID, err)
	}
}

func event(name, p string) events.Event {
	e := xmltree.NewElement("", name)
	e.SetAttr("", "p", p)
	return events.New(e)
}

// TestDetectorHostConformance runs the event-service contract once per
// hosted language: what the host guarantees must not depend on the language
// behind it.
func TestDetectorHostConformance(t *testing.T) {
	rows := []struct {
		name string
		run  func(t *testing.T, lang hostedLanguage)
	}{
		{"lifecycle", conformLifecycle},
		{"errors", conformErrors},
		{"answer", conformAnswer},
		{"registration order", conformOrder},
		{"remote delivery", conformRemote},
		{"tenants share a key", conformTenantKey},
		{"no detection across tenants", conformTenantComposite},
		{"ordered feed under concurrent publishers", conformOrderedFeed},
	}
	for _, lang := range hostedLanguages {
		for _, row := range rows {
			t.Run(lang.name+"/"+row.name, func(t *testing.T) { row.run(t, lang) })
		}
	}
}

// conformLifecycle: register, re-register, unregister and Registrations.
func conformLifecycle(t *testing.T, lang hostedLanguage) {
	stream := events.NewStream()
	var c answers
	h := NewDetectorHost(stream, c.deliverer(), lang.compile)
	defer h.Close()
	register(t, h, "r1", lang.single("a"), "")
	if h.Registrations() != 1 {
		t.Fatalf("registrations = %d, want 1", h.Registrations())
	}
	stream.Publish(event("a", "John"))
	got := c.take()
	if len(got) != 1 || got[0].RuleID != "r1" || got[0].Component != "event[1]" || len(got[0].Rows) != 1 {
		t.Fatalf("detections = %+v", got)
	}
	row := got[0].Rows[0]
	if row.Tuple["P"].AsString() != "John" {
		t.Errorf("binding = %v", row.Tuple)
	}
	// The detected event travels as a functional result.
	if len(row.Results) != 1 || row.Results[0].Kind() != bindings.XML || row.Results[0].Node().Root().Name.Local != "a" {
		t.Errorf("event payload missing from results: %v", row.Results)
	}
	// Registering the key again replaces its detector.
	register(t, h, "r1", lang.single("b"), "")
	if h.Registrations() != 1 {
		t.Fatalf("registrations after re-registering = %d, want 1", h.Registrations())
	}
	stream.Publish(event("a", "x"))
	stream.Publish(event("b", "y"))
	if got := c.take(); len(got) != 1 || got[0].Rows[0].Tuple["P"].AsString() != "y" {
		t.Fatalf("after re-registering: detections = %+v", got)
	}
	unregister(t, h, "r1")
	if h.Registrations() != 0 {
		t.Fatalf("registrations after unregister = %d", h.Registrations())
	}
	stream.Publish(event("b", "z"))
	if got := c.take(); len(got) != 0 {
		t.Fatalf("unregistered detector still detects: %+v", got)
	}
}

// conformErrors: an unsupported kind, a bad expression and a registration
// without an expression are each an error, and none registers anything.
func conformErrors(t *testing.T, lang hostedLanguage) {
	h := NewDetectorHost(events.NewStream(), &Deliverer{}, lang.compile)
	defer h.Close()
	if _, err := h.Handle(&protocol.Request{Kind: protocol.Query, RuleID: "r", Component: "event[1]"}); err == nil {
		t.Error("query request accepted")
	}
	if _, err := h.Handle(&protocol.Request{Kind: protocol.RegisterEvent, RuleID: "r", Component: "event[1]"}); err == nil {
		t.Error("registration without an expression accepted")
	}
	for _, bad := range lang.bad {
		if _, err := h.Handle(&protocol.Request{Kind: protocol.RegisterEvent, RuleID: "r", Component: "event[1]", Expression: bad}); err == nil {
			t.Errorf("bad expression %s accepted", bad)
		}
	}
	if h.Registrations() != 0 {
		t.Errorf("registrations = %d after refused requests", h.Registrations())
	}
}

// conformAnswer: one detection is one answer whose row carries the bindings
// and, as results, every constituent's payload; its lifecycle stamps are the
// newest constituent's.
func conformAnswer(t *testing.T, lang hostedLanguage) {
	stream := events.NewStream()
	var c answers
	h := NewDetectorHost(stream, c.deliverer(), lang.compile)
	defer h.Close()
	register(t, h, "r", lang.composite, "")
	base, admitted := time.Unix(1000, 0), time.Unix(2000, 0)
	var last events.Event
	for i, e := range lang.stream {
		ev := event(e[0], e[1])
		ev.Time, ev.AdmittedAt = base.Add(time.Duration(i)*time.Second), admitted.Add(time.Duration(i)*time.Second)
		last = stream.Publish(ev)
	}
	got := c.take()
	if len(got) != 1 || len(got[0].Rows) != 1 {
		t.Fatalf("detections = %+v, want one answer with one row", got)
	}
	a, row := got[0], got[0].Rows[0]
	if row.Tuple["P"].AsString() != "x" {
		t.Errorf("binding = %v", row.Tuple)
	}
	var names []string
	for _, r := range row.Results {
		names = append(names, r.Node().Root().Name.Local)
	}
	if !slices.Equal(names, lang.constituents) {
		t.Errorf("results are events %v, want the constituents %v", names, lang.constituents)
	}
	if !a.AdmittedAt.Equal(last.AdmittedAt) || !a.PublishedAt.Equal(last.Time) {
		t.Errorf("answer stamped admitted %v published %v, want the newest constituent's %v %v",
			a.AdmittedAt, a.PublishedAt, last.AdmittedAt, last.Time)
	}
}

// conformOrder: detectors that complete on one event deliver in
// registration order, every time; registering a key again moves it to the
// end.
func conformOrder(t *testing.T, lang hostedLanguage) {
	const n = 16
	for run := 0; run < 20; run++ {
		stream := events.NewStream()
		var c answers
		h := NewDetectorHost(stream, c.deliverer(), lang.compile)
		var want []string
		for i := 0; i < n; i++ {
			id := fmt.Sprintf("rule-%02d", (i*7)%n) // registration order ≠ id order
			register(t, h, id, lang.single("a"), "")
			want = append(want, id)
		}
		stream.Publish(event("a", "x"))
		if got := ruleIDs(c.take()); !slices.Equal(got, want) {
			t.Fatalf("run %d: answer order %v, registration order %v", run, got, want)
		}
		register(t, h, want[0], lang.single("a"), "")
		want = append(want[1:], want[0])
		stream.Publish(event("a", "x"))
		if got := ruleIDs(c.take()); !slices.Equal(got, want) {
			t.Fatalf("run %d: after re-registering, answer order %v, want %v", run, got, want)
		}
		h.Close()
	}
}

// conformRemote: a registration with a ReplyTo gets its answers posted
// there, and one whose ReplyTo is dead does not stop detection for the
// others.
func conformRemote(t *testing.T, lang hostedLanguage) {
	var mu sync.Mutex
	var received []*protocol.Answer
	cb := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		doc, err := xmltree.Parse(r.Body)
		if err == nil {
			var a *protocol.Answer
			if a, err = protocol.DecodeAnswers(doc); err == nil {
				mu.Lock()
				received = append(received, a)
				mu.Unlock()
				return
			}
		}
		http.Error(w, err.Error(), http.StatusBadRequest)
	}))
	defer cb.Close()
	stream := events.NewStream()
	var c answers
	h := NewDetectorHost(stream, c.deliverer(), lang.compile)
	defer h.Close()
	register(t, h, "remote", lang.single("a"), cb.URL)
	register(t, h, "dead", lang.single("a"), "http://127.0.0.1:1/none")
	register(t, h, "local", lang.single("a"), "")
	stream.Publish(event("a", "x"))
	mu.Lock()
	defer mu.Unlock()
	if len(received) != 1 || received[0].RuleID != "remote" || received[0].Rows[0].Tuple["P"].AsString() != "x" {
		t.Errorf("remote detections = %+v", received)
	}
	if got := ruleIDs(c.take()); !slices.Equal(got, []string{"local"}) {
		t.Errorf("local detections = %v (a dead remote must not block)", got)
	}
}

// registerIn registers src under ruleID in a tenant.
func registerIn(t *testing.T, h *DetectorHost, tenant, ruleID, src string) {
	t.Helper()
	req := &protocol.Request{Kind: protocol.RegisterEvent, RuleID: ruleID, Component: "event[1]",
		Expression: xmltree.MustParse(src).Root(), Tenant: tenant}
	if _, err := h.Handle(req); err != nil {
		t.Fatalf("register %s in %q: %v", ruleID, tenant, err)
	}
}

// eventIn is event(name, p) published under a tenant.
func eventIn(tenant, name, p string) events.Event {
	ev := event(name, p)
	ev.Tenant = tenant
	return ev
}

// conformTenantKey: two tenants register the same key and pattern; each
// detects only its own tenant's events, and its answers carry its tenant.
func conformTenantKey(t *testing.T, lang hostedLanguage) {
	stream := events.NewStream()
	var c answers
	h := NewDetectorHost(stream, c.deliverer(), lang.compile)
	defer h.Close()
	for _, tenant := range []string{"", "acme"} {
		registerIn(t, h, tenant, "r", lang.single("a"))
	}
	if h.Registrations() != 2 {
		t.Fatalf("registrations = %d, want one per tenant", h.Registrations())
	}
	for _, tenant := range []string{"other", "", "acme"} {
		stream.Publish(eventIn(tenant, "a", tenant))
	}
	var got []string
	for _, a := range c.take() {
		got = append(got, a.Tenant+"="+a.Rows[0].Tuple["P"].AsString())
	}
	if want := []string{"=", "acme=acme"}; !slices.Equal(got, want) {
		t.Fatalf("detections (tenant=$P) = %v, want %v", got, want)
	}
	// Unregistering the key in one tenant leaves the other's.
	if _, err := h.Handle(&protocol.Request{Kind: protocol.UnregisterEvent, RuleID: "r", Component: "event[1]", Tenant: "acme"}); err != nil {
		t.Fatal(err)
	}
	stream.Publish(eventIn("acme", "a", "acme"))
	stream.Publish(eventIn("", "a", "x"))
	if got := c.take(); h.Registrations() != 1 || len(got) != 1 || got[0].Tenant != "" {
		t.Fatalf("after unregistering in acme: %d registrations, detections %+v", h.Registrations(), got)
	}
}

// conformTenantComposite: a detection never combines events of two
// tenants. The composite's every event but the last in acme, the last in
// beta, detects nothing; the last in acme completes it.
func conformTenantComposite(t *testing.T, lang hostedLanguage) {
	stream := events.NewStream()
	var c answers
	h := NewDetectorHost(stream, c.deliverer(), lang.compile)
	defer h.Close()
	registerIn(t, h, "acme", "r", lang.composite)
	last := len(lang.stream) - 1
	for _, e := range lang.stream[:last] {
		stream.Publish(eventIn("acme", e[0], e[1]))
	}
	stream.Publish(eventIn("beta", lang.stream[last][0], lang.stream[last][1]))
	if got := c.take(); len(got) != 0 {
		t.Fatalf("events of two tenants detected together: %+v", got)
	}
	stream.Publish(eventIn("acme", lang.stream[last][0], lang.stream[last][1]))
	if got := c.take(); len(got) != 1 || got[0].Tenant != "acme" {
		t.Fatalf("detections = %+v, want one for acme", got)
	}
}

// TestDetectorHostRejectsNamelessDetector: a detector must listen to at
// least one event name; one that names none is refused at registration.
func TestDetectorHostRejectsNamelessDetector(t *testing.T) {
	nameless := func(*xmltree.Node, events.Emit) (events.Detector, error) {
		return events.Detector{Feed: func(events.Event) {}}, nil
	}
	h := NewDetectorHost(events.NewStream(), &Deliverer{}, nameless)
	defer h.Close()
	req := &protocol.Request{Kind: protocol.RegisterEvent, RuleID: "r", Component: "event[1]", Expression: xmltree.MustParse(`<a/>`).Root()}
	if _, err := h.Handle(req); err == nil || h.Registrations() != 0 {
		t.Fatalf("nameless detector: err %v, %d registrations", err, h.Registrations())
	}
}

// conformOrderedFeed: detectors fed from racing publishers detect every
// event once, in the order the stream sequenced them, for every pool shape.
func conformOrderedFeed(t *testing.T, lang hostedLanguage) {
	const publishers, perPublisher = 8, 40
	rules := []string{"r0", "r1", "r2"}
	for _, workers := range detectorWorkers {
		t.Run(fmt.Sprintf("W=%d", workers), func(t *testing.T) {
			pool := NewDetectorPool(workers, nil)
			defer pool.Close()
			var mu sync.Mutex
			got := map[string][]string{} // rule → $P of each detection, in delivery order
			total := 0
			stream := events.NewStream()
			var streamOrder []string // p of every event, in Seq order
			stream.Subscribe(func(ev events.Event) {
				mu.Lock()
				streamOrder = append(streamOrder, ev.Payload.AttrValue("", "p"))
				mu.Unlock()
			})
			h := NewDetectorHost(stream, &Deliverer{Local: func(a *protocol.Answer) {
				mu.Lock()
				got[a.RuleID] = append(got[a.RuleID], a.Rows[0].Tuple["P"].AsString())
				total++
				mu.Unlock()
			}}, lang.compile, WithDetectorPool(pool))
			defer h.Close()
			for _, id := range rules {
				register(t, h, id, lang.single("a"), "")
			}
			var wg sync.WaitGroup
			for p := 0; p < publishers; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					for i := 0; i < perPublisher; i++ {
						stream.Publish(event("a", fmt.Sprintf("%d-%d", p, i)))
					}
				}(p)
			}
			wg.Wait()
			awaitCount(len(rules)*publishers*perPublisher, func() int {
				mu.Lock()
				defer mu.Unlock()
				return total
			})
			mu.Lock()
			defer mu.Unlock()
			for _, id := range rules {
				if !slices.Equal(got[id], streamOrder) {
					t.Errorf("rule %s: %d detections, not the %d events in stream order", id, len(got[id]), len(streamOrder))
				}
			}
		})
	}
}

// FuzzCompileEventExpression compiles arbitrary XML through every hosted
// event language. Compiling must not panic, and neither may feeding an
// accepted detector three events: the expression's first leaf elements, so
// the events carry the names and attributes its patterns look for. Leaves,
// because a pattern with n same-named children matches an event with as
// many in n! ways. The events share one timestamp because a periodic
// expression fires once per elapsed interval: even at the 1ms floor, an
// hour of stream time is 3.6 million occurrences, a cost of the rule, not of
// the compiler.
func FuzzCompileEventExpression(f *testing.F) {
	f.Add(`<travel:booking xmlns:travel="http://www.semwebtech.org/domains/2006/travel" person="$Person" to="$Dest"/>`)
	for _, lang := range hostedLanguages {
		f.Add(lang.single("a"))
		f.Add(lang.composite)
		for _, bad := range lang.bad {
			f.Add(bad.String())
		}
	}
	for _, op := range []string{
		`<snoop:or xmlns:snoop="` + snoop.NS + `"><snoop:event><a/></snoop:event><snoop:event><b/></snoop:event></snoop:or>`,
		`<snoop:and xmlns:snoop="` + snoop.NS + `" context="recent"><snoop:event><a k="$K"/></snoop:event><snoop:event><b k="$K"/></snoop:event></snoop:and>`,
		`<snoop:any m="2" xmlns:snoop="` + snoop.NS + `"><snoop:event><a/></snoop:event><snoop:event><b/></snoop:event><snoop:event><c/></snoop:event></snoop:any>`,
		`<snoop:not xmlns:snoop="` + snoop.NS + `"><snoop:event><a/></snoop:event><snoop:event><b/></snoop:event><snoop:event><c/></snoop:event></snoop:not>`,
		`<snoop:aperiodic xmlns:snoop="` + snoop.NS + `" context="cumulative"><snoop:event><a/></snoop:event><snoop:event><b/></snoop:event><snoop:event><c/></snoop:event></snoop:aperiodic>`,
		`<snoop:aperiodic-star xmlns:snoop="` + snoop.NS + `"><snoop:event><a/></snoop:event><snoop:event><b/></snoop:event><snoop:event><c/></snoop:event></snoop:aperiodic-star>`,
		`<snoop:periodic interval="5s" xmlns:snoop="` + snoop.NS + `"><snoop:event><a/></snoop:event><snoop:event><b/></snoop:event></snoop:periodic>`,
		`<win:atleast xmlns:win="` + winlang.NS + `" n="3" within="10s"><f user="$U"/></win:atleast>`,
	} {
		f.Add(op)
	}
	f.Fuzz(func(t *testing.T, src string) {
		doc, err := xmltree.ParseString(src)
		if err != nil || doc.Root() == nil {
			return
		}
		var feed []events.Event
		var walk func(n *xmltree.Node)
		walk = func(n *xmltree.Node) {
			kids := n.ChildElements()
			if len(kids) == 0 && len(feed) < 3 {
				feed = append(feed, events.Event{Payload: n, Seq: uint64(len(feed) + 1), Time: time.Unix(1000, 0)})
			}
			for _, c := range kids {
				walk(c)
			}
		}
		walk(doc.Root())
		for _, lang := range hostedLanguages {
			det, err := lang.compile(doc.Root(), func([]bindings.Tuple, []events.Event) {})
			if err != nil {
				continue
			}
			for _, ev := range feed {
				det.Feed(ev)
			}
			if det.Advance != nil {
				det.Advance(time.Unix(1000, 0), uint64(len(feed)))
			}
		}
	})
}
