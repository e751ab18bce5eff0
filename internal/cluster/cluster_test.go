package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/events"
	"repro/internal/grh"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/ruleml"
	"repro/internal/services"
	"repro/internal/store"
	"repro/internal/xmltree"
)

const (
	ecaNS   = "http://www.semwebtech.org/languages/2006/eca-ml"
	snoopNS = "http://www.semwebtech.org/languages/2006/snoop"
	testNS  = "http://t/"
)

// pingNames are the names pingRule listens to.
var pingNames = []xmltree.Name{{Space: testNS, Local: "ping"}}

func pingRule(id string) *ruleml.Rule {
	return ruleml.MustParse(`<eca:rule xmlns:eca="` + ecaNS + `" xmlns:t="` + testNS + `" id="` + id + `">` +
		`<eca:event><t:ping x="$X"/></eca:event>` +
		`<eca:action><t:pong x="$X"/></eca:action></eca:rule>`)
}

func snoopRule(id string) *ruleml.Rule {
	return ruleml.MustParse(`<eca:rule xmlns:eca="` + ecaNS + `" xmlns:snoop="` + snoopNS + `" xmlns:t="` + testNS + `" id="` + id + `">` +
		`<eca:event><snoop:or><snoop:event><t:alarm/></snoop:event><snoop:event><t:warning/></snoop:event></snoop:or></eca:event>` +
		`<eca:action><t:pong/></eca:action></eca:rule>`)
}

func opaqueEventRule(id string) *ruleml.Rule {
	return ruleml.MustParse(`<eca:rule xmlns:eca="` + ecaNS + `" xmlns:t="` + testNS + `" id="` + id + `">` +
		`<eca:event><eca:opaque language="x">anything goes</eca:opaque></eca:event>` +
		`<eca:action><t:pong/></eca:action></eca:rule>`)
}

// ruleEngine is an engine with the atomic matcher, SNOOP and an opaque
// event language "x" that compiles nothing, as a node's Local.
func ruleEngine(t *testing.T) *engine.Engine {
	t.Helper()
	g := grh.New()
	stream := events.NewStream()
	deliver := &services.Deliverer{Local: func(*protocol.Answer) {}}
	accept := grh.ServiceFunc(func(req *protocol.Request) (*protocol.Answer, error) {
		return &protocol.Answer{RuleID: req.RuleID, Component: req.Component}, nil
	})
	matcher, sn := services.NewEventMatcher(stream, deliver), services.NewSnoopService(stream, deliver)
	for _, d := range []grh.Descriptor{
		{Language: services.MatcherNS, FrameworkAware: true, Local: matcher, Compile: matcher.Compile},
		{Language: snoopNS, FrameworkAware: true, Local: sn, Compile: sn.Compile},
		{Language: "x", FrameworkAware: true, Local: accept},
	} {
		if err := g.Register(d); err != nil {
			t.Fatal(err)
		}
	}
	g.SetDefault(ruleml.EventComponent, services.MatcherNS)
	return engine.New(g)
}

// TestEventVocabulary: a node advertises the names its rules' plans list
// and routes by them: a plain pattern gives its one name, SNOOP the names
// of its leaf patterns, and an opaque event, whose form reports none, is a
// wildcard.
func TestEventVocabulary(t *testing.T) {
	e := ruleEngine(t)
	n, err := New(Options{NodeID: "a", Peers: []Peer{{ID: "a", URL: "http://a"}}}, Hooks{Local: e}, nil)
	if err != nil {
		t.Fatal(err)
	}
	term := func(local string) string { return "{" + testNS + "}" + local }
	event := func(local string) *xmltree.Node { return xmltree.NewElement(testNS, local) }
	for _, row := range []struct {
		rule     *ruleml.Rule
		vocab    []string
		wildcard bool
	}{
		{pingRule("p"), []string{term("ping")}, false},
		{snoopRule("s"), []string{term("alarm"), term("ping"), term("warning")}, false},
		{opaqueEventRule("o"), []string{term("alarm"), term("ping"), term("warning")}, true},
	} {
		if err := e.Register(row.rule); err != nil {
			t.Fatal(err)
		}
		st := n.Status()
		if strings.Join(st.Vocab, " ") != strings.Join(row.vocab, " ") || st.Wildcard != row.wildcard {
			t.Errorf("after %s: vocab %v wildcard %v, want %v %v", row.rule.ID, st.Vocab, st.Wildcard, row.vocab, row.wildcard)
		}
		if !n.localMatches(event("alarm")) == (row.rule.ID != "p") {
			t.Errorf("after %s: local match of alarm = %v", row.rule.ID, !(row.rule.ID != "p"))
		}
		if n.localMatches(event("pong")) != row.wildcard {
			t.Errorf("after %s: pong matched locally = %v, want %v", row.rule.ID, !row.wildcard, row.wildcard)
		}
	}
	if got := strings.Join(n.Status().Rules, " "); got != "o p s" {
		t.Errorf("rules = %q", got)
	}
	if err := e.Unregister("", "o"); err != nil {
		t.Fatal(err)
	}
	if st := n.Status(); st.Wildcard || n.localMatches(event("pong")) {
		t.Errorf("wildcard outlives its rule: %+v", st)
	}
}

func TestEventTerm(t *testing.T) {
	doc := xmltree.MustParse(`<t:ping xmlns:t="` + testNS + `" x="1"/>`)
	if got := EventTerm(doc); got != "{"+testNS+"}ping" {
		t.Errorf("EventTerm = %q", got)
	}
}

func TestNewValidation(t *testing.T) {
	peers := []Peer{{ID: "a", URL: "http://a"}, {ID: "b", URL: "http://b"}}
	if _, err := New(Options{NodeID: "ghost", Peers: peers}, Hooks{}, nil); err == nil {
		t.Error("node id missing from peer list accepted")
	}
	if _, err := New(Options{NodeID: "a", Peers: append(peers, Peer{ID: "a", URL: "http://a2"})}, Hooks{}, nil); err == nil {
		t.Error("duplicate peer id accepted")
	}
	if _, err := New(Options{NodeID: "a", Peers: peers, ReplicateTo: "ghost"}, Hooks{}, nil); err == nil {
		t.Error("unknown replication target accepted")
	}
	n, err := New(Options{NodeID: "a", Peers: peers}, Hooks{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Successor of a in {a, b} is b — but without a store there is nothing
	// to replicate.
	if got := n.Follower(); got != "" {
		t.Errorf("store-less node follower = %q, want \"\"", got)
	}
}

func TestAssignIDUniqueAndStablePrefix(t *testing.T) {
	n, err := New(Options{NodeID: "a", Peers: []Peer{{ID: "a", URL: "http://a"}}}, Hooks{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	doc := xmltree.MustParse(`<e/>`)
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		id := n.AssignID(doc)
		if !strings.HasPrefix(id, "r-") {
			t.Fatalf("assigned id %q lacks r- prefix", id)
		}
		if seen[id] {
			t.Fatalf("duplicate assigned id %q", id)
		}
		seen[id] = true
	}
}

func TestRetryAfterBounds(t *testing.T) {
	cases := map[string]time.Duration{
		"":    100 * time.Millisecond,
		"0":   100 * time.Millisecond,
		"bad": 100 * time.Millisecond,
		"1":   time.Second,
		"30":  time.Second, // bounded: a forwarding hop never stalls long
	}
	for in, want := range cases {
		if got := retryAfter(in); got != want {
			t.Errorf("retryAfter(%q) = %v, want %v", in, got, want)
		}
	}
}

// recordingPeer is an httptest peer that records forwarded requests.
type recordingPeer struct {
	mu     sync.Mutex
	reqs   []*http.Request
	bodies []string
	status int
	header http.Header
	srv    *httptest.Server
}

func newRecordingPeer(status int) *recordingPeer {
	p := &recordingPeer{status: status, header: http.Header{}}
	p.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var buf bytes.Buffer
		buf.ReadFrom(r.Body)
		p.mu.Lock()
		p.reqs = append(p.reqs, r)
		p.bodies = append(p.bodies, buf.String())
		p.mu.Unlock()
		for k, vs := range p.header {
			for _, v := range vs {
				w.Header().Set(k, v)
			}
		}
		w.WriteHeader(p.status)
	}))
	return p
}

func (p *recordingPeer) count() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.reqs)
}

func (p *recordingPeer) last() (*http.Request, string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.reqs) == 0 {
		return nil, ""
	}
	return p.reqs[len(p.reqs)-1], p.bodies[len(p.bodies)-1]
}

// threeNode builds node "a" with remote peers b and c backed by the given
// servers. Probing is not started: tests poke peer state directly.
func threeNode(t *testing.T, b, c *recordingPeer, hooks Hooks) *Node {
	t.Helper()
	n, err := New(Options{
		NodeID: "a",
		Peers: []Peer{
			{ID: "a", URL: "http://127.0.0.1:1"},
			{ID: "b", URL: b.srv.URL},
			{ID: "c", URL: c.srv.URL},
		},
		ReplicateTo: "none",
		Obs:         obs.NewHub(),
	}, hooks, nil)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestRouteEventByVocabulary(t *testing.T) {
	b := newRecordingPeer(http.StatusAccepted)
	defer b.srv.Close()
	c := newRecordingPeer(http.StatusAccepted)
	defer c.srv.Close()
	n := threeNode(t, b, c, Hooks{Local: engine.New(grh.New())})

	n.mu.Lock()
	n.peers["b"].vocabKnown = true
	n.peers["b"].vocab = map[string]bool{"{" + testNS + "}ping": true}
	n.peers["c"].vocabKnown = true // knows its vocabulary: empty
	n.mu.Unlock()

	res := n.RouteEvent("", xmltree.MustParse(`<t:ping xmlns:t="`+testNS+`" x="1"/>`))
	if len(res.Forwarded) != 1 || res.Forwarded[0] != "b" {
		t.Fatalf("Forwarded = %v, want [b]", res.Forwarded)
	}
	if res.Local {
		t.Error("event routed locally although only b matches")
	}
	if c.count() != 0 {
		t.Errorf("peer c received %d requests, want 0", c.count())
	}
	req, body := b.last()
	if req.Header.Get(OriginHeader) != "a" {
		t.Errorf("forwarded request origin = %q, want a", req.Header.Get(OriginHeader))
	}
	if req.Header.Get(protocol.TraceIDHeader) == "" {
		t.Error("forwarded request carries no trace id")
	}
	if !strings.Contains(body, "ping") {
		t.Errorf("forwarded body = %q", body)
	}

	// No peer matches: the event stays local so it is never dropped.
	res = n.RouteEvent("", xmltree.MustParse(`<t:nobody xmlns:t="`+testNS+`"/>`))
	if !res.Local || len(res.Forwarded) != 0 {
		t.Errorf("unmatched event route = %+v, want local only", res)
	}
}

func TestRouteEventConservativeBeforeFirstProbe(t *testing.T) {
	b := newRecordingPeer(http.StatusAccepted)
	defer b.srv.Close()
	c := newRecordingPeer(http.StatusAccepted)
	defer c.srv.Close()
	n := threeNode(t, b, c, Hooks{})

	// Vocabulary unknown everywhere: forward to every up peer rather than
	// risk losing the event.
	res := n.RouteEvent("", xmltree.MustParse(`<t:ping xmlns:t="`+testNS+`"/>`))
	if len(res.Forwarded) != 2 {
		t.Errorf("Forwarded = %v, want both peers", res.Forwarded)
	}
	// No Local hook means local matching cannot be ruled out.
	if !res.Local {
		t.Error("hook-less node must keep events local too")
	}
}

func TestRouteEventShedAfterRetry(t *testing.T) {
	b := newRecordingPeer(http.StatusTooManyRequests)
	defer b.srv.Close()
	b.header.Set("Retry-After", "0") // keep the test fast: bounded to 100ms
	c := newRecordingPeer(http.StatusAccepted)
	defer c.srv.Close()
	n := threeNode(t, b, c, Hooks{Local: engine.New(grh.New())})
	n.mu.Lock()
	n.peers["b"].vocabKnown, n.peers["b"].vocab = true, map[string]bool{"{" + testNS + "}ping": true}
	n.peers["c"].vocabKnown = true
	n.mu.Unlock()

	res := n.RouteEvent("", xmltree.MustParse(`<t:ping xmlns:t="`+testNS+`"/>`))
	if len(res.Shed) != 1 || res.Shed[0] != "b" {
		t.Fatalf("Shed = %v, want [b]", res.Shed)
	}
	if len(res.Failed) != 0 {
		t.Errorf("429 counted as hard failure: %v", res.Failed)
	}
	if b.count() != 2 {
		t.Errorf("peer b received %d requests, want 2 (initial + one retry)", b.count())
	}
}

func TestForwardRulePeerDown(t *testing.T) {
	b := newRecordingPeer(http.StatusOK)
	defer b.srv.Close()
	c := newRecordingPeer(http.StatusOK)
	defer c.srv.Close()
	n := threeNode(t, b, c, Hooks{})
	n.mu.Lock()
	n.peers["b"].up = false
	n.mu.Unlock()

	if _, _, err := n.ForwardRule("", pingRule("r1"), pingNames, "b"); !errors.Is(err, ErrPeerDown) {
		t.Errorf("forward to down peer: err = %v, want ErrPeerDown", err)
	}
	if _, _, err := n.ForwardRule("", pingRule("r1"), pingNames, "ghost"); err == nil {
		t.Error("forward to unknown owner accepted")
	}
}

func TestForwardRuleLearnsVocabulary(t *testing.T) {
	b := newRecordingPeer(http.StatusCreated)
	defer b.srv.Close()
	c := newRecordingPeer(http.StatusAccepted)
	defer c.srv.Close()
	n := threeNode(t, b, c, Hooks{Local: engine.New(grh.New())})
	n.mu.Lock()
	n.peers["b"].vocabKnown = true // empty vocabulary as of the last probe
	n.peers["c"].vocabKnown = true
	n.mu.Unlock()

	status, _, err := n.ForwardRule("", pingRule("r1"), pingNames, "b")
	if err != nil || status != http.StatusCreated {
		t.Fatalf("ForwardRule = %d, %v", status, err)
	}
	req, body := b.last()
	if got := req.Header.Get(OriginHeader); got != "a" {
		t.Errorf("forwarded registration origin = %q", got)
	}
	if !strings.Contains(body, `id="r1"`) {
		t.Errorf("forwarded rule body = %q", body)
	}

	// The owner's new vocabulary is routable immediately, before the next
	// probe refreshes it.
	res := n.RouteEvent("", xmltree.MustParse(`<t:ping xmlns:t="`+testNS+`"/>`))
	if len(res.Forwarded) != 1 || res.Forwarded[0] != "b" {
		t.Errorf("Forwarded = %v, want [b] via learned vocabulary", res.Forwarded)
	}
}

// journalPost drives the JournalHandler like the primary's shipper does.
func journalPost(t *testing.T, n *Node, query string, body []byte) (int, uint64) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/cluster/journal?"+query, bytes.NewReader(body))
	w := httptest.NewRecorder()
	n.JournalHandler(w, req)
	if w.Code != http.StatusOK {
		return w.Code, 0
	}
	var ack struct {
		Acked uint64 `json:"acked"`
	}
	if err := jsonDecode(w.Body, &ack); err != nil {
		t.Fatalf("bad ack body: %v", err)
	}
	return w.Code, ack.Acked
}

func TestJournalHandlerProtocol(t *testing.T) {
	// Frames come from a real primary store so the wire format is exactly
	// the journal's.
	s, err := store.Open(t.TempDir(), store.Options{Fsync: store.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var stream []store.RepRecord
	s.SetReplicationSink(func(r store.RepRecord) { stream = append(stream, r) })
	s.RuleRegistered("", "r1", pingRule("r1").Doc, time.Now())
	s.RuleRegistered("", "r2", snoopRule("r2").Doc, time.Now())
	baseFrames, baseSeq, err := s.ReplicationState()
	if err != nil {
		t.Fatal(err)
	}
	s.RuleRegistered("", "r3", pingRule("r3").Doc, time.Now())

	n, err := New(Options{NodeID: "b", Peers: []Peer{
		{ID: "a", URL: "http://127.0.0.1:1"}, {ID: "b", URL: "http://127.0.0.1:2"},
	}, ReplicateTo: "none"}, Hooks{}, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Bad requests first: no from, from=self, wrong method.
	if code, _ := journalPost(t, n, "first=1", nil); code != http.StatusBadRequest {
		t.Errorf("missing from: HTTP %d", code)
	}
	if code, _ := journalPost(t, n, "from=b&first=1", nil); code != http.StatusBadRequest {
		t.Errorf("from=self: HTTP %d", code)
	}
	w := httptest.NewRecorder()
	n.JournalHandler(w, httptest.NewRequest(http.MethodGet, "/cluster/journal", nil))
	if w.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET journal: HTTP %d", w.Code)
	}

	// Base sync as of baseSeq, then the incremental r3 frame.
	code, acked := journalPost(t, n, urlSeq("full=1&seq", baseSeq)+"&from=a", flatten(baseFrames))
	if code != http.StatusOK || acked != baseSeq {
		t.Fatalf("base sync: HTTP %d acked %d, want %d", code, acked, baseSeq)
	}
	inc := stream[len(stream)-1]
	code, acked = journalPost(t, n, urlSeq("first", inc.Seq)+"&from=a", inc.Frame)
	if code != http.StatusOK || acked != inc.Seq {
		t.Fatalf("incremental: HTTP %d acked %d, want %d", code, acked, inc.Seq)
	}

	// A gap is business as usual: HTTP 200, acknowledgement unchanged, so
	// the primary knows where to resume.
	code, acked = journalPost(t, n, urlSeq("first", inc.Seq+7)+"&from=a", inc.Frame)
	if code != http.StatusOK || acked != inc.Seq {
		t.Errorf("gap: HTTP %d acked %d, want %d", code, acked, inc.Seq)
	}

	st := n.Status()
	var ps *PeerStatus
	for i := range st.Peers {
		if st.Peers[i].ID == "a" {
			ps = &st.Peers[i]
		}
	}
	if ps == nil || ps.Replica == nil {
		t.Fatalf("status has no replica entry for a: %+v", st.Peers)
	}
	if ps.Replica.Rules != 3 || ps.Replica.LastSeq != inc.Seq {
		t.Errorf("replica status = %+v, want 3 rules at seq %d", ps.Replica, inc.Seq)
	}
}

// TestShipAndTakeover wires a real primary store to a follower node over
// HTTP: the shipper base-syncs and streams increments, and when the
// primary is declared dead the follower replays the mirror through the
// takeover hooks.
func TestShipAndTakeover(t *testing.T) {
	var (
		followerMu sync.Mutex
		follower   *Node
	)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		followerMu.Lock()
		f := follower
		followerMu.Unlock()
		switch r.URL.Path {
		case "/cluster/journal":
			f.JournalHandler(w, r)
		case "/cluster/status":
			f.StatusHandler(w, r)
		default:
			http.NotFound(w, r)
		}
	}))
	defer srv.Close()

	peers := []Peer{{ID: "a", URL: "http://127.0.0.1:1"}, {ID: "b", URL: srv.URL}}
	var (
		recovered struct {
			sync.Mutex
			rules  []string
			events []string
		}
	)
	f, err := New(Options{NodeID: "b", Peers: peers, ReplicateTo: "none"}, Hooks{
		RegisterRecovered: func(tenant, id string, doc *xmltree.Node, at time.Time) error {
			recovered.Lock()
			defer recovered.Unlock()
			recovered.rules = append(recovered.rules, id)
			return nil
		},
		PublishRecovered: func(tenant string, doc *xmltree.Node) error {
			recovered.Lock()
			defer recovered.Unlock()
			recovered.events = append(recovered.events, doc.Root().Name.Local)
			return nil
		},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	followerMu.Lock()
	follower = f
	followerMu.Unlock()

	st, err := store.Open(t.TempDir(), store.Options{Fsync: store.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	primary, err := New(Options{NodeID: "a", Peers: peers, ProbeInterval: time.Hour}, Hooks{}, st)
	if err != nil {
		t.Fatal(err)
	}
	if got := primary.Follower(); got != "b" {
		t.Fatalf("primary follower = %q, want b (sorted successor)", got)
	}

	st.RuleRegistered("", "r1", pingRule("r1").Doc, time.Now())
	primary.Start()
	defer primary.Close()
	st.RuleRegistered("", "r2", snoopRule("r2").Doc, time.Now())
	if _, err := st.AppendEventBatchTenant("", []*xmltree.Node{xmltree.MustParse(`<orphan/>`)}); err != nil {
		t.Fatal(err)
	}

	// The shipper flushes on its own clock; wait for the mirror to catch up.
	deadline := time.Now().Add(5 * time.Second)
	for {
		f.mu.Lock()
		rep := f.replicas["a"]
		f.mu.Unlock()
		if rep != nil {
			if rules, events := rep.Counts(); rules == 2 && events == 1 {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("follower mirror never caught up to 2 rules + 1 event")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Primary dies: the prober would call maybeTakeover; drive it directly.
	f.maybeTakeover("a")
	recovered.Lock()
	rules, events := append([]string{}, recovered.rules...), append([]string{}, recovered.events...)
	recovered.Unlock()
	if len(rules) != 2 || rules[0] != "r1" || rules[1] != "r2" {
		t.Errorf("recovered rules = %v, want [r1 r2] in registration order", rules)
	}
	if len(events) != 1 || events[0] != "orphan" {
		t.Errorf("recovered events = %v, want [orphan]", events)
	}
	if got := f.Status().Takeovers; got != 1 {
		t.Errorf("takeovers = %d, want 1", got)
	}

	// A second death report must not replay the partition again.
	f.maybeTakeover("a")
	recovered.Lock()
	again := len(recovered.rules)
	recovered.Unlock()
	if again != 2 {
		t.Errorf("takeover ran twice: %d rule registrations", again)
	}
}

// --- small helpers ------------------------------------------------------------------

func jsonDecode(r *bytes.Buffer, v any) error {
	return json.NewDecoder(r).Decode(v)
}

func urlSeq(key string, v uint64) string {
	return key + "=" + strconv.FormatUint(v, 10)
}
