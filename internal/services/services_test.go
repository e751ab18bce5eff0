package services

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/bindings"
	"repro/internal/datalog"
	"repro/internal/events"
	"repro/internal/protocol"
	"repro/internal/snoop"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

func TestDocStore(t *testing.T) {
	s := NewDocStore()
	s.Put("a.xml", xmltree.MustParse(`<a/>`))
	s.Put("b.xml", xmltree.MustParse(`<b/>`))
	if _, ok := s.Get("a.xml"); !ok {
		t.Error("a.xml missing")
	}
	if uris := s.URIs(); len(uris) != 2 || uris[0] != "a.xml" {
		t.Errorf("uris = %v", uris)
	}
	if _, err := s.Resolver()("nope"); err == nil {
		t.Error("resolver should fail for unknown uri")
	}
	if err := s.Update("a.xml", func(d *xmltree.Node) error {
		d.Root().Append(xmltree.NewElement("", "child"))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	doc, _ := s.Get("a.xml")
	if len(doc.Root().ChildElements()) != 1 {
		t.Error("update lost")
	}
	if err := s.Update("nope", func(*xmltree.Node) error { return nil }); err == nil {
		t.Error("update of unknown doc should fail")
	}
}

func TestSnoopServiceHandle(t *testing.T) {
	stream := events.NewStream()
	var got []*protocol.Answer
	s := NewSnoopService(stream, &Deliverer{Local: func(a *protocol.Answer) { got = append(got, a) }})
	defer s.Close()
	expr := xmltree.MustParse(`<snoop:seq xmlns:snoop="` + snoop.NS + `" context="chronicle">
		<snoop:event><a p="$P"/></snoop:event>
		<snoop:event><b p="$P"/></snoop:event>
	</snoop:seq>`).Root()
	if _, err := s.Handle(&protocol.Request{Kind: protocol.RegisterEvent, RuleID: "r", Component: "event[1]", Expression: expr}); err != nil {
		t.Fatal(err)
	}
	pub := func(name, p string) {
		e := xmltree.NewElement("", name)
		e.SetAttr("", "p", p)
		stream.Publish(events.New(e))
	}
	pub("a", "x")
	pub("b", "y") // incompatible join variable
	pub("b", "x") // completes the sequence
	if len(got) != 1 {
		t.Fatalf("snoop detections = %+v", got)
	}
	row := got[0].Rows[0]
	if row.Tuple["P"].AsString() != "x" {
		t.Errorf("binding = %v", row.Tuple)
	}
	if len(row.Results) != 2 {
		t.Errorf("constituents = %d, want 2", len(row.Results))
	}
}

func TestXQueryServicePerTuple(t *testing.T) {
	store := NewDocStore()
	store.Put("cars", xmltree.MustParse(`<o><owner n="a"><car>golf</car></owner><owner n="b"><car>polo</car><car>lupo</car></owner></o>`))
	svc := NewXQueryService(store, nil)
	expr := xmltree.NewElement(XQueryNS, "query")
	expr.AppendText(`for $c in doc('cars')//owner[@n=$N]/car return $c/text()`)
	a, err := svc.Handle(&protocol.Request{
		Kind: protocol.Query, RuleID: "r", Component: "q",
		Expression: expr,
		Bindings: bindings.NewRelation(
			bindings.MustTuple("N", bindings.Str("a")),
			bindings.MustTuple("N", bindings.Str("b")),
		),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Rows) != 2 {
		t.Fatalf("rows = %d", len(a.Rows))
	}
	counts := map[string]int{}
	for _, r := range a.Rows {
		counts[r.Tuple["N"].AsString()] = len(r.Results)
	}
	if counts["a"] != 1 || counts["b"] != 2 {
		t.Errorf("result counts = %v", counts)
	}
	// Errors: bad query, wrong kind.
	bad := xmltree.NewElement(XQueryNS, "query")
	bad.AppendText(`for $c in`)
	if _, err := svc.Handle(&protocol.Request{Kind: protocol.Query, Expression: bad, Bindings: bindings.NewRelation()}); err == nil {
		t.Error("bad query should fail")
	}
	if _, err := svc.Handle(&protocol.Request{Kind: protocol.Action, Expression: expr, Bindings: bindings.NewRelation()}); err == nil {
		t.Error("wrong kind should fail")
	}
}

func TestDatalogServiceExtendsBindings(t *testing.T) {
	prog := datalog.MustParse(`
		class("VW Golf", c).
		class("VW Passat", b).
	`)
	svc, err := NewDatalogService(prog)
	if err != nil {
		t.Fatal(err)
	}
	expr := xmltree.NewElement(DatalogNS, "query")
	expr.AppendText(`class(OwnCar, Class)`)
	a, err := svc.Handle(&protocol.Request{
		Kind: protocol.Query, RuleID: "r", Component: "q",
		Expression: expr,
		Bindings:   bindings.NewRelation(bindings.MustTuple("OwnCar", bindings.Str("VW Golf"))),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Rows) != 1 {
		t.Fatalf("rows = %+v", a.Rows)
	}
	if a.Rows[0].Tuple["Class"].AsString() != "c" {
		t.Errorf("class = %v", a.Rows[0].Tuple)
	}
	// AddFacts re-materializes.
	if err := svc.AddFacts(datalog.FactsFromRelation("class", []string{"M", "C"}, bindings.NewRelation(
		bindings.MustTuple("M", bindings.Str("Twingo"), "C", bindings.Str("a")),
	))); err != nil {
		t.Fatal(err)
	}
	a, _ = svc.Handle(&protocol.Request{
		Kind: protocol.Query, Expression: expr,
		Bindings: bindings.NewRelation(bindings.MustTuple("OwnCar", bindings.Str("Twingo"))),
	})
	if len(a.Rows) != 1 || a.Rows[0].Tuple["Class"].AsString() != "a" {
		t.Errorf("after AddFacts: %+v", a.Rows)
	}
}

func TestTestEvaluator(t *testing.T) {
	rel := bindings.NewRelation(
		bindings.MustTuple("N", bindings.Num(5), "S", bindings.Str("keep")),
		bindings.MustTuple("N", bindings.Num(50), "S", bindings.Str("drop")),
	)
	out, err := EvalTest(xpath.MustCompile(`$N < 10 and $S = 'keep'`), rel)
	if err != nil {
		t.Fatal(err)
	}
	if out.Size() != 1 {
		t.Fatalf("filtered = %s", out)
	}
	// Through the service interface.
	expr := xmltree.NewElement(TestNS, "test")
	expr.AppendText(`$N >= 10`)
	a, err := TestEvaluator{}.Handle(&protocol.Request{Kind: protocol.Test, Expression: expr, Bindings: rel})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Rows) != 1 || a.Rows[0].Tuple["S"].AsString() != "drop" {
		t.Errorf("rows = %+v", a.Rows)
	}
	// A compiled form on the request is used in place of the text.
	a, err = TestEvaluator{}.Handle(&protocol.Request{Kind: protocol.Test, Expression: expr, Bindings: rel,
		Compiled: xpath.MustCompile(`$N < 10`)})
	if err != nil || len(a.Rows) != 1 || a.Rows[0].Tuple["S"].AsString() != "keep" {
		t.Errorf("with Compiled: rows = %+v, err %v", a, err)
	}
	// Bad condition.
	bad := xmltree.NewElement(TestNS, "test")
	bad.AppendText(`$N <`)
	if _, err := (TestEvaluator{}).Handle(&protocol.Request{Kind: protocol.Test, Expression: bad, Bindings: rel}); err == nil {
		t.Error("bad condition should fail")
	}
	if _, err := EvalTest(xpath.MustCompile(`$Missing > 1`), rel); err == nil {
		t.Error("unbound variable in test should fail")
	}
}

func TestActionExecutorShapes(t *testing.T) {
	store := NewDocStore()
	store.Put("log", xmltree.MustParse(`<log><old flag="x"/></log>`))
	stream := events.NewStream()
	var sent []*xmltree.Node
	var raised []events.Event
	stream.Subscribe(func(ev events.Event) { raised = append(raised, ev) })
	ex := NewActionExecutor(store, stream, func(n *xmltree.Node, t bindings.Tuple) { sent = append(sent, n) })

	rel := bindings.NewRelation(
		bindings.MustTuple("P", bindings.Str("john"), "C", bindings.Str("golf")),
		bindings.MustTuple("P", bindings.Str("jane"), "C", bindings.Str("polo")),
	)
	run := func(src string) error {
		t.Helper()
		expr := xmltree.MustParse(src).Root()
		_, err := ex.Handle(&protocol.Request{Kind: protocol.Action, RuleID: "r", Component: "a", Expression: expr, Bindings: rel})
		return err
	}
	// Bare domain action → message per tuple.
	if err := run(`<t:inform xmlns:t="http://t/" person="$P" car="$C"/>`); err != nil {
		t.Fatal(err)
	}
	if len(sent) != 2 || sent[0].AttrValue("", "person") != "john" {
		t.Fatalf("sent = %v", sent)
	}
	// act:raise → event per tuple.
	if err := run(`<act:raise xmlns:act="` + ActionNS + `"><t:followup xmlns:t="http://t/" p="$P"/></act:raise>`); err != nil {
		t.Fatal(err)
	}
	if len(raised) != 2 || raised[0].Payload.Name.Local != "followup" {
		t.Fatalf("raised = %v", raised)
	}
	// store:insert → element per tuple.
	if err := run(`<store:insert xmlns:store="` + StoreNS + `" doc="log"><entry p="$P"/></store:insert>`); err != nil {
		t.Fatal(err)
	}
	doc, _ := store.Get("log")
	if n := len(doc.Root().ChildElementsNamed("", "entry")); n != 2 {
		t.Fatalf("inserted = %d", n)
	}
	// store:delete with variable in selector.
	if err := run(`<store:delete xmlns:store="` + StoreNS + `" doc="log" select="//entry[@p='$P']"/>`); err != nil {
		t.Fatal(err)
	}
	doc, _ = store.Get("log")
	if n := len(doc.Root().ChildElementsNamed("", "entry")); n != 0 {
		t.Fatalf("after delete = %d entries", n)
	}
	if ex.Executed() != 8 {
		t.Errorf("executed = %d, want 8 (4 actions × 2 tuples)", ex.Executed())
	}
	// Error shapes.
	if err := run(`<act:raise xmlns:act="` + ActionNS + `"/>`); err == nil {
		t.Error("raise without payload should fail")
	}
	if err := run(`<store:insert xmlns:store="` + StoreNS + `" doc="nope"><x/></store:insert>`); err == nil {
		t.Error("insert into unknown doc should fail")
	}
}

func TestInstantiateSplicesFragments(t *testing.T) {
	frag := xmltree.MustParse(`<car vin="1"><model>Golf</model></car>`).Root()
	tpl := xmltree.MustParse(`<msg to="$P"><body>Your car: $M</body><attach>$F</attach></msg>`).Root()
	tup := bindings.MustTuple(
		"P", bindings.Str("john"),
		"M", bindings.Str("Golf"),
		"F", bindings.Fragment(frag),
	)
	out := Instantiate(tpl, tup)
	if out.AttrValue("", "to") != "john" {
		t.Errorf("attr = %q", out.AttrValue("", "to"))
	}
	if got := out.FirstChildElement("", "body").TextContent(); got != "Your car: Golf" {
		t.Errorf("body = %q", got)
	}
	attach := out.FirstChildElement("", "attach")
	if len(attach.ChildElements()) != 1 || attach.ChildElements()[0].Name.Local != "car" {
		t.Errorf("fragment not spliced: %s", attach)
	}
}

func TestOpaqueXMLStoreHTTP(t *testing.T) {
	store := NewOpaqueXMLStore(xmltree.MustParse(`<classes><entry model="Golf" class="C"/></classes>`), nil)
	srv := httptest.NewServer(store)
	defer srv.Close()
	get := func(q string) (int, string) {
		resp, err := http.Get(srv.URL + "?query=" + url.QueryEscape(q))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}
	code, body := get(`//entry[@model='Golf']/@class`)
	if code != 200 || !strings.Contains(body, "<value>C</value>") {
		t.Errorf("GET = %d %q", code, body)
	}
	code, body = get(`count(//entry)`)
	if code != 200 || !strings.Contains(body, "1") {
		t.Errorf("count = %d %q", code, body)
	}
	if code, _ := get(`//entry[`); code != 400 {
		t.Errorf("bad query = %d", code)
	}
	resp, _ := http.Get(srv.URL)
	if resp.StatusCode != 400 {
		t.Errorf("missing query = %d", resp.StatusCode)
	}
	resp.Body.Close()
}

func TestOpaqueXQueryNodeHTTP(t *testing.T) {
	store := NewDocStore()
	store.Put("avail", xmltree.MustParse(`<a><car class="B"><name>Astra</name></car><car class="D"><name>Espace</name></car></a>`))
	srv := httptest.NewServer(NewOpaqueXQueryNode(store, map[string]string{"log": protocol.LogNS}))
	defer srv.Close()
	q := `<log:answers xmlns:log="` + protocol.LogNS + `">{for $c in doc('avail')//car return <log:answer><log:variable name="Class">{string($c/@class)}</log:variable></log:answer>}</log:answers>`
	resp, err := http.Get(srv.URL + "?query=" + url.QueryEscape(q))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	doc, err := xmltree.ParseString(string(body))
	if err != nil {
		t.Fatalf("response not XML: %v\n%s", err, body)
	}
	a, err := protocol.DecodeAnswers(doc)
	if err != nil {
		t.Fatalf("response not log:answers: %v", err)
	}
	if len(a.Rows) != 2 {
		t.Errorf("rows = %d", len(a.Rows))
	}
}

func TestHandlerWireProtocol(t *testing.T) {
	echo := func(req *protocol.Request) (*protocol.Answer, error) {
		if req.RuleID == "fail" {
			return nil, fmt.Errorf("synthetic failure")
		}
		return protocol.NewAnswer(req.RuleID, req.Component, req.Bindings), nil
	}
	srv := httptest.NewServer(Handler(serviceFunc(echo)))
	defer srv.Close()
	req := &protocol.Request{
		Kind: protocol.Query, RuleID: "r", Component: "q",
		Expression: xmltree.NewElement("http://l/", "q"),
		Bindings:   bindings.NewRelation(bindings.MustTuple("X", bindings.Num(1))),
	}
	resp, err := http.Post(srv.URL, "application/xml", strings.NewReader(protocol.EncodeRequest(req).String()))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	a, err := protocol.DecodeAnswers(xmltree.MustParse(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Rows) != 1 {
		t.Errorf("rows = %+v", a.Rows)
	}
	// GET rejected.
	getResp, _ := http.Get(srv.URL)
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET status = %d", getResp.StatusCode)
	}
	getResp.Body.Close()
	// Service error → 422.
	req.RuleID = "fail"
	resp2, _ := http.Post(srv.URL, "application/xml", strings.NewReader(protocol.EncodeRequest(req).String()))
	if resp2.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("failure status = %d", resp2.StatusCode)
	}
	resp2.Body.Close()
	// Garbage body → 400.
	resp3, _ := http.Post(srv.URL, "application/xml", strings.NewReader("not xml"))
	if resp3.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage status = %d", resp3.StatusCode)
	}
	resp3.Body.Close()
}

type serviceFunc func(*protocol.Request) (*protocol.Answer, error)

func (f serviceFunc) Handle(r *protocol.Request) (*protocol.Answer, error) { return f(r) }

// TestSnoopSequenceNoMisfireUnderConcurrentPublishers is the SNOOP-level
// regression for the out-of-order Publish family: detectors a;b and a∧b
// (joined on p) fed from racing publishers must fire exactly once per
// pair, in the order the stream sequenced the terminating b events. Before
// the ordered dispatch stage, a pair's b could reach the detector before
// its a, silently dropping the occurrence.
func TestSnoopSequenceNoMisfireUnderConcurrentPublishers(t *testing.T) {
	const (
		publishers = 8
		pairsPer   = 40
	)
	var mu sync.Mutex
	got := map[string][]string{} // rule → $P of each detection, in delivery order
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
		mu.Unlock()
	}})
	defer s.Close()
	rules := []string{"seq", "and"}
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
}
