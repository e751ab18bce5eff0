package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/domain/travel"
	"repro/internal/engine"
	"repro/internal/events"
	"repro/internal/grh"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/ruleml"
	"repro/internal/services"
	"repro/internal/snoop"
	"repro/internal/store"
	"repro/internal/system"
	"repro/internal/xmltree"
)

// The traced pass runs the workload's stream, one request at a time, through
// an in-process deployment wired like the daemon, and times every layer from
// outside: around its public functions, through service decorators installed
// with GRH.Lookup+GRH.Register, and through handlers wrapped around the
// opaque nodes. Nothing inside the program is instrumented.
//
// A request is first POSTed to the in-process system (the root span). Its
// layers are then replayed on the same input, one public function at a time:
// parse, journal append, stream publish, atomic match, SNOOP feed, and the
// engine on the detections the event services produce. The engine is run a
// second time over a proxy GRH whose only service forwards every dispatch to
// the real GRH under a span, which is how dispatches of opaque components,
// that no service decorator sees, are timed and their bindings captured.

// span is one timed interval. The spans of one request share its unit.
type span struct {
	Unit   int    `json:"unit"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"` // since the traced pass began
	End    int64  `json:"end_ns"`
}

// tracer collects spans in memory. Spans nest in the order they are begun:
// the traced pass is strictly sequential, so the innermost open span is the
// cause of the next one. A layer replayed on its own has no open span around
// it and names the span it is part of in the deployment instead.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	unit  int
	quiet bool // drop the spans of the service decorators
	stack []string
	spans []span
}

// begin opens a span and returns the function that closes it. partOf is
// the parent of a span begun while no other is open.
func (t *tracer) begin(name, partOf string) func() {
	t.mu.Lock()
	parent := partOf
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.stack = append(t.stack, name)
	unit := t.unit
	t.mu.Unlock()
	start := time.Now()
	return func() {
		end := time.Now()
		t.mu.Lock()
		t.stack = t.stack[:len(t.stack)-1]
		t.spans = append(t.spans, span{unit, name, parent, int64(start.Sub(t.t0)), int64(end.Sub(t.t0))})
		t.mu.Unlock()
	}
}

// layer opens a span for a service decorator; outside the proxy run, where
// the decorated services also execute, it records nothing.
func (t *tracer) layer(name string) func() {
	t.mu.Lock()
	quiet := t.quiet
	t.mu.Unlock()
	if quiet {
		return func() {}
	}
	return t.begin(name, "")
}

func (t *tracer) setUnit(unit int, quiet bool) {
	t.mu.Lock()
	t.unit, t.quiet = unit, quiet
	t.mu.Unlock()
}

// selfTimes returns, for every span, its duration minus the part of its
// interval that its child spans cover. Children are the spans of the same
// unit that name it as parent and lie inside it; overlapping children are
// counted once.
func selfTimes(spans []span) []int64 {
	byUnit := map[int][]int{}
	for i, s := range spans {
		byUnit[s.Unit] = append(byUnit[s.Unit], i)
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		var kids []span
		for _, j := range byUnit[s.Unit] {
			c := spans[j]
			if j != i && c.Parent == s.Name && c.Start >= s.Start && c.End <= s.End {
				kids = append(kids, c)
			}
		}
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, until := int64(0), s.Start
		for _, c := range kids {
			if c.End <= until {
				continue
			}
			if c.Start > until {
				until = c.Start
			}
			covered += c.End - until
			until = c.End
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// timedService decorates a component language service with a span.
func (t *tracer) timedService(name string, svc grh.Service) grh.Service {
	return grh.ServiceFunc(func(req *protocol.Request) (*protocol.Answer, error) {
		defer t.layer(name)()
		return svc.Handle(req)
	})
}

// timedHandler decorates a framework-unaware HTTP node with a span.
func (t *tracer) timedHandler(name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer t.layer(name)()
		h.ServeHTTP(w, r)
	})
}

// dispatch is one GRH dispatch the proxy forwarded: what the engine asked
// and what the service answered.
type dispatch struct {
	comp ruleml.Component
	req  *protocol.Request
	ans  *protocol.Answer
}

// rig is the in-process deployment of the traced pass and the replay
// fixtures beside it.
type rig struct {
	w   *workload
	tr  *tracer
	sys *system.System
	srv *http.Server
	url string
	web *http.Client // the sequential client of the root span

	proxy      *engine.Engine // the rules again, over the proxy GRH
	dispatches []dispatch     // forwarded by the proxy for the current request

	detect     *events.Stream     // feeds the event services whose detections are captured
	detections []*protocol.Answer // captured for the current request
	matcher    *events.Matcher    // the workload's atomic patterns, no-op sinks
	detectors  []*snoop.Detector  // the workload's SNOOP expressions, no-op sinks
	publish    *events.Stream     // one no-op subscriber
	journal    *store.Store       // nil unless the workload is durable
	seq        uint64

	sentMu    sync.Mutex
	sent      []string  // notifier messages since the current request began
	registers []float64 // µs per rule: ruleml.Parse + Engine.Register
	tmp       string
}

func (r *rig) close() {
	if r.srv != nil {
		r.srv.Close()
	}
	if r.sys != nil {
		r.sys.Close()
	}
	if r.journal != nil {
		r.journal.Close()
	}
	os.RemoveAll(r.tmp)
}

// newRig wires the deployment the way cmd/ecad does for the workload's
// flags, installs the decorators and registers the rules.
func newRig(w *workload, rules []string) (_ *rig, err error) {
	r := &rig{w: w, tr: &tracer{t0: time.Now(), quiet: true}, web: &http.Client{Timeout: 30 * time.Second}}
	defer func() {
		if err != nil {
			r.close()
		}
	}()
	if r.tmp, err = os.MkdirTemp(outDir, "trace-"); err != nil {
		return nil, err
	}
	hub := obs.NewHub()
	logger := obs.NewLogger(os.Stderr, "text", slog.LevelError)
	cfg := system.Config{Namespaces: travel.Namespaces(), Obs: hub, Log: logger,
		Retry: grh.DefaultRetryPolicy, Breaker: grh.DefaultBreakerPolicy}
	if w.durable {
		// The daemon's default fsync and snapshot policies.
		if cfg.Store, err = store.Open(filepath.Join(r.tmp, "system"), store.Options{Obs: hub, Log: logger}); err != nil {
			return nil, err
		}
		if r.journal, err = store.Open(filepath.Join(r.tmp, "journal"), store.Options{}); err != nil {
			return nil, err
		}
	}
	if r.sys, err = system.NewLocal(cfg); err != nil {
		return nil, err
	}
	r.sys.Notifier.OnSend(func(n system.Notification) {
		attrs := map[string]string{}
		for _, a := range n.Message.Attrs {
			if !a.IsNamespaceDecl() {
				attrs[a.Name.Local] = a.Value
			}
		}
		r.sentMu.Lock()
		r.sent = append(r.sent, message(n.Message.Name.Local, attrs))
		r.sentMu.Unlock()
	})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r.url = "http://" + ln.Addr().String()

	// The decorated services: behind the GRH registry for in-process
	// dispatch, behind the wire-protocol endpoints for -distribute.
	timed := map[string]grh.Service{}
	for lang, name := range map[string]string{
		services.XQueryNS: "services.xquery.handle_us",
		services.TestNS:   "services.test.handle_us",
		services.ActionNS: "services.action.handle_us",
	} {
		d, ok := r.sys.GRH.Lookup(lang)
		if !ok {
			return nil, fmt.Errorf("no service registered for %s", lang)
		}
		dd := *d
		dd.Local = r.tr.timedService(name, d.Local)
		timed[lang] = dd.Local
		if err := r.sys.GRH.Register(dd); err != nil {
			return nil, err
		}
	}
	var opaqueDoc *xmltree.Node
	ns := travel.Namespaces()
	mux := http.NewServeMux()
	if w.travel {
		travel.LoadStore(r.sys.Store)
		opaqueDoc = xmltree.MustParse(travel.ClassesXML)
		mux.Handle("/opaque/store", r.tr.timedHandler("services.opaque_store.serve_us",
			services.NewOpaqueXMLStore(opaqueDoc, ns).SetObs(hub)))
		mux.Handle("/opaque/xquery", r.tr.timedHandler("services.opaque_xquery.serve_us",
			services.NewOpaqueXQueryNode(r.sys.Store, ns).SetObs(hub)))
		rules = []string{travel.RuleXML(r.url+"/opaque/store", r.url+"/opaque/xquery")}
	}
	mux.Handle("/services/xquery", services.NewHandler(timed[services.XQueryNS], hub, logger))
	mux.Handle("/services/test", services.NewHandler(timed[services.TestNS], hub, logger))
	mux.Handle("/services/action", services.NewHandler(timed[services.ActionNS], hub, logger))
	mux.Handle("/", r.sys.Mux(opaqueDoc, ns))
	r.srv = &http.Server{Handler: mux}
	go r.srv.Serve(ln)
	if w.distribute {
		if err := r.sys.Distribute(r.url); err != nil {
			return nil, err
		}
	}
	if _, err := r.sys.Recover(); err != nil {
		return nil, err
	}

	// The proxy GRH answers every language with one service that forwards
	// the dispatch to the real GRH under a span.
	comps := map[string]ruleml.Component{}
	forward := grh.ServiceFunc(func(req *protocol.Request) (*protocol.Answer, error) {
		if req.Kind == protocol.RegisterEvent || req.Kind == protocol.UnregisterEvent {
			return &protocol.Answer{RuleID: req.RuleID, Component: req.Component}, nil
		}
		comp := comps[req.RuleID+"/"+req.Component]
		end := r.tr.begin("grh.dispatch_us."+string(req.Kind), "engine.on_detection_us")
		ans, err := r.sys.GRH.Dispatch(req.Kind, grh.Component{
			Rule: req.RuleID, Comp: comp, Bindings: req.Bindings, Tenant: req.Tenant})
		end()
		if err == nil {
			r.dispatches = append(r.dispatches, dispatch{comp, req, ans})
		}
		return ans, err
	})
	pg := grh.New()
	proxyLang := func(lang string) error {
		return pg.Register(grh.Descriptor{Language: lang, FrameworkAware: true, Local: forward})
	}
	if err := proxyLang("urn:eca:benchmark:proxy"); err != nil {
		return nil, err
	}
	for _, k := range []ruleml.ComponentKind{ruleml.EventComponent, ruleml.QueryComponent, ruleml.TestComponent, ruleml.ActionComponent} {
		pg.SetDefault(k, "urn:eca:benchmark:proxy")
	}
	r.proxy = engine.New(pg)

	r.detect = events.NewStream()
	capture := &services.Deliverer{Local: func(a *protocol.Answer) { r.detections = append(r.detections, a) }}
	atomicSvc, snoopSvc := services.NewEventMatcher(r.detect, capture), services.NewSnoopService(r.detect, capture)
	r.matcher = events.NewMatcher()
	r.publish = events.NewStream()
	r.publish.Subscribe(func(events.Event) {})

	for _, src := range rules {
		doc, err := xmltree.ParseString(src)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		rule, err := ruleml.Parse(doc)
		if err == nil {
			err = r.sys.Engine.Register(rule)
		}
		r.registers = append(r.registers, us(time.Since(start)))
		if err != nil {
			return nil, err
		}

		again, err := ruleml.ParseString(src)
		if err != nil {
			return nil, err
		}
		for _, c := range again.Components() {
			comps[again.ID+"/"+c.ID] = c
			if c.Language != "" {
				if err := proxyLang(c.Language); err != nil {
					return nil, err
				}
			}
		}
		if err := r.proxy.Register(again); err != nil {
			return nil, err
		}

		ev := rule.Event
		isSnoop := ev.Language == snoop.NS
		var eventSvc grh.Service = atomicSvc
		if isSnoop {
			eventSvc = snoopSvc
		}
		if _, err := eventSvc.Handle(&protocol.Request{Kind: protocol.RegisterEvent,
			RuleID: rule.ID, Component: ev.ID, Language: ev.Language, Expression: ev.Expression}); err != nil {
			return nil, err
		}
		if !isSnoop {
			p, err := events.NewPattern(ev.Expression)
			if err != nil {
				return nil, err
			}
			r.matcher.Register(rule.ID, p, func(events.Detection) {})
			continue
		}
		expr, err := snoop.ParseXML(ev.Expression)
		if err != nil {
			return nil, err
		}
		ctx := snoop.Chronicle // the service's default
		if name := ev.Expression.AttrValue("", "context"); name != "" {
			if ctx, err = snoop.ParseContext(name); err != nil {
				return nil, err
			}
		}
		det, err := snoop.NewDetector(expr, ctx, func(snoop.Occurrence) {})
		if err != nil {
			return nil, err
		}
		r.detectors = append(r.detectors, det)
	}
	return r, nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// unit is what the traced pass learned about one request.
type unit struct {
	events  int
	wrong   int   // oracle mismatches: notifier messages, detections
	joined  int   // tuples produced by the replayed joins
	bytes   int64 // journal growth of the replayed append
	appends int   // events that growth covers
}

// step runs one request through the rig: the POST, then the replays.
func (r *rig) step(i int, req request) (unit, error) {
	u := unit{events: len(req.docs)}
	tr := r.tr
	tr.setUnit(i, true)
	r.detections, r.dispatches = r.detections[:0], r.dispatches[:0]
	r.sentMu.Lock()
	r.sent = r.sent[:0]
	r.sentMu.Unlock()

	// Root span: the client's round trip through the whole deployment.
	ct := "application/xml"
	if req.ndjson {
		ct = "application/x-ndjson"
	}
	end := tr.begin("system.post_us", "")
	resp, err := r.web.Post(r.url+"/events", ct, bytes.NewReader(req.body))
	if err == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	end()
	if err != nil || resp.StatusCode != http.StatusOK {
		return u, fmt.Errorf("traced POST /events: %v %v", err, resp)
	}
	r.sentMu.Lock()
	sent := append([]string(nil), r.sent...)
	r.sentMu.Unlock()
	sort.Strings(sent)
	if strings.Join(sent, "\n") != strings.Join(req.want, "\n") {
		u.wrong++
		fmt.Printf("oracle mismatch: request %d sent %q, oracle expects %q\n", i, sent, req.want)
	}
	r.sys.Notifier.Reset()

	// Admission path, one public function at a time.
	docs := make([]*xmltree.Node, len(req.docs))
	evs := make([]events.Event, len(req.docs))
	end = tr.begin("xmltree.parse_us", "system.post_us")
	for j, src := range req.docs {
		if docs[j], err = xmltree.Parse(strings.NewReader(src)); err != nil {
			return u, err
		}
	}
	end()
	if r.journal != nil {
		end = tr.begin("xmltree.serialize_us", "store.append_us")
		for _, d := range docs {
			_ = d.String()
		}
		end()
		before := r.journal.Health().JournalBytes
		end = tr.begin("store.append_us", "system.post_us")
		ids, err := r.journal.AppendEventBatchTenant("", docs)
		r.journal.AckEvents(ids)
		end()
		if err != nil {
			return u, err
		}
		// A snapshot in between truncates the journal; skip that request.
		if after := r.journal.Health().JournalBytes; after > before {
			u.bytes, u.appends = after-before, len(docs)
		}
	}
	for j, d := range docs {
		evs[j] = events.New(d)
	}
	end = tr.begin("events.publish_us", "system.post_us")
	r.publish.PublishBatch(append([]events.Event(nil), evs...))
	end()
	for j := range evs {
		r.seq++
		evs[j].Seq = r.seq
	}
	end = tr.begin("events.match_us", "system.post_us")
	for _, ev := range evs {
		r.matcher.OnEvent(ev)
	}
	end()
	end = tr.begin("snoop.feed_us", "system.post_us")
	for _, ev := range evs {
		for _, d := range r.detectors {
			d.Feed(ev)
		}
	}
	end()

	// The detections the event services make of the request, then the
	// engine on each of them: once as deployed, once over the proxy GRH.
	r.detect.PublishBatch(append([]events.Event(nil), evs...))
	again := make([]*protocol.Answer, len(r.detections))
	for j, a := range r.detections {
		again[j] = a.Clone()
	}
	end = tr.begin("engine.on_detection_us", "system.post_us")
	for _, a := range r.detections {
		r.sys.Engine.OnDetection(a)
	}
	end()
	tr.setUnit(i, false)
	for _, a := range again {
		r.proxy.OnDetection(a)
	}
	tr.setUnit(i, true)
	r.sys.Notifier.Reset()

	// The captured traffic through the wire protocol and the join.
	for _, d := range r.dispatches {
		if d.req.Kind != protocol.Action {
			end = tr.begin("bindings.join_us", "engine.on_detection_us")
			u.joined += d.req.Bindings.Join(d.ans.Relation()).Size()
			end()
		}
		if d.comp.Opaque && d.comp.Service != "" {
			continue // mediated by raw HTTP GET: no envelope
		}
		via := "grh.dispatch_us." + string(d.req.Kind)
		end = tr.begin("protocol.encode_us", via)
		reqDoc, ansDoc := protocol.EncodeRequest(d.req), protocol.EncodeAnswers(d.ans)
		end()
		if !r.w.distribute {
			continue // in-process dispatch: nothing is serialized or decoded
		}
		end = tr.begin("xmltree.serialize_us", via)
		reqSrc, ansSrc := reqDoc.String(), ansDoc.String()
		end()
		end = tr.begin("xmltree.parse_us", via)
		reqBack, err1 := xmltree.ParseString(reqSrc)
		ansBack, err2 := xmltree.ParseString(ansSrc)
		end()
		if err1 != nil || err2 != nil {
			return u, fmt.Errorf("wire documents do not parse back: %v %v", err1, err2)
		}
		end = tr.begin("protocol.decode_us", via)
		_, err1 = protocol.DecodeRequest(reqBack)
		_, err2 = protocol.DecodeAnswers(ansBack)
		end()
		if err1 != nil || err2 != nil {
			return u, fmt.Errorf("wire documents do not decode: %v %v", err1, err2)
		}
	}
	return u, nil
}

// layerNames are the spans a unit's time is summed under.
var layerNames = []string{
	"system.post_us", "xmltree.parse_us", "xmltree.serialize_us", "store.append_us",
	"events.publish_us", "events.match_us", "snoop.feed_us", "engine.on_detection_us",
	"grh.dispatch_us.query", "grh.dispatch_us.test", "grh.dispatch_us.action",
	"protocol.encode_us", "protocol.decode_us", "bindings.join_us",
	"services.xquery.handle_us", "services.test.handle_us", "services.action.handle_us",
	"services.opaque_store.serve_us", "services.opaque_xquery.serve_us",
}

// tracedPass runs warm-up and measured requests through a rig and returns
// the per-layer metrics that come from it: the median over the measured
// requests of each layer's µs per event, and the counts.
func tracedPass(w *workload, rules []string, seed int64) (layers map[string]float64, events, wrong int, err error) {
	r, err := newRig(w, rules)
	if err != nil {
		return nil, 0, 0, err
	}
	defer r.close()
	st := w.stream(seed)
	var units []unit
	for i := 0; i < w.warmup+w.traced; i++ {
		u, err := r.step(i, st.next())
		if err != nil {
			return nil, 0, 0, err
		}
		events += u.events
		wrong += u.wrong
		if i >= w.warmup {
			units = append(units, u)
		}
	}
	// The engine behind the POSTs saw every detection twice: from the POST
	// and from the replay. The proxy run has an engine of its own.
	got := r.sys.Engine.Stats()
	if want := 2 * st.exp.Created; got.InstancesCreated != want {
		wrong++
		fmt.Printf("oracle mismatch: traced engine created %d instances, oracle expects %d\n", got.InstancesCreated, want)
	}

	// Per unit and layer: total span time and self time, in µs per event.
	self := selfTimes(r.tr.spans)
	total := map[string][]float64{}
	own := map[string][]float64{}
	for _, n := range layerNames {
		total[n] = make([]float64, len(units))
		own[n] = make([]float64, len(units))
	}
	replayed := make([]float64, len(units)) // the layers replayed as parts of the root span
	for i, s := range r.tr.spans {
		k := s.Unit - w.warmup
		if k < 0 || total[s.Name] == nil {
			continue
		}
		per := float64(units[k].events) * 1000
		total[s.Name][k] += float64(s.End-s.Start) / per
		own[s.Name][k] += float64(self[i]) / per
		if s.Parent == "system.post_us" {
			replayed[k] += float64(s.End-s.Start) / per
		}
	}
	m := map[string]float64{}
	for _, n := range layerNames {
		m[n] = median(total[n])
	}
	// Derived layers, per unit, then the median.
	var admissionUs, engineSelf, grhSelf, coverage []float64
	var joined, measured, bytes, appends float64
	for k, u := range units {
		post := total["system.post_us"][k]
		admissionUs = append(admissionUs, max(0, post-replayed[k]))
		coverage = append(coverage, replayed[k]/post)
		dispatched := total["grh.dispatch_us.query"][k] + total["grh.dispatch_us.test"][k] + total["grh.dispatch_us.action"][k]
		engineSelf = append(engineSelf, max(0, total["engine.on_detection_us"][k]-dispatched))
		grhSelf = append(grhSelf, own["grh.dispatch_us.query"][k]+own["grh.dispatch_us.test"][k]+own["grh.dispatch_us.action"][k])
		joined += float64(u.joined)
		measured += float64(u.events)
		bytes += float64(u.bytes)
		appends += float64(u.appends)
	}
	m["system.admission_us"] = median(admissionUs)
	m["engine.self_us"] = median(engineSelf)
	m["grh.self_us"] = median(grhSelf)
	m["trace.coverage_ratio"] = median(coverage)
	m["engine.register_us"] = median(r.registers)
	m["events.registrations"] = float64(r.sys.Matcher.Registrations() + r.sys.Snoop.Registrations())
	m["bindings.tuples_joined_per_event"] = joined / measured
	if appends > 0 {
		m["store.journal_bytes_per_event"] = bytes / appends
	}

	if err := writeTrace(w, r.tr.spans); err != nil {
		return nil, 0, 0, err
	}
	printBudget(m)
	return m, events, wrong, nil
}

// writeTrace saves the spans of the traced pass.
func writeTrace(w *workload, spans []span) error {
	f, err := os.Create(filepath.Join(outDir, "trace-"+w.name+".json"))
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// budgetOrder lists the layers from the root span down; the indent shows
// which span a layer is part of.
var budgetOrder = []string{
	"system.post_us",
	"  system.admission_us",
	"  xmltree.parse_us",
	"  store.append_us",
	"  events.publish_us",
	"  events.match_us",
	"  snoop.feed_us",
	"  engine.on_detection_us",
	"    engine.self_us",
	"      bindings.join_us",
	"    grh.dispatch_us.query",
	"    grh.dispatch_us.test",
	"    grh.dispatch_us.action",
	"      grh.self_us",
	"        protocol.encode_us",
	"        protocol.decode_us",
	"        xmltree.serialize_us",
	"      services.xquery.handle_us",
	"      services.test.handle_us",
	"      services.action.handle_us",
	"      services.opaque_store.serve_us",
	"      services.opaque_xquery.serve_us",
}

// printBudget prints the layers of one workload against the root span.
func printBudget(m map[string]float64) {
	post := m["system.post_us"]
	fmt.Printf("budget: %-38s %10s %8s\n", "layer", "µs/event", "of post")
	for _, n := range budgetOrder {
		name := strings.TrimLeft(n, " ")
		fmt.Printf("budget: %-38s %10.2f %7.1f%%\n", n, m[name], 100*m[name]/post)
	}
}

// runPerLayer produces the per-layer metrics: the counts the daemon's own
// /metrics moved by during an open loop at the pinned rate, the client's view
// of that loop, and the traced pass.
func runPerLayer(ctx context.Context, bin string, w *workload, seed int64, seconds float64) (result, error) {
	rules := w.rules()
	s, err := boot(ctx, bin, w, rules, seed)
	if err != nil {
		return result{}, err
	}
	defer s.d.stop()
	before, err := s.d.scrape()
	if err != nil {
		return result{}, err
	}
	open := drive(realClock{}, s.workers, w.interval(), time.Duration(0.6*seconds*float64(time.Second)), s.st.next, s.post)
	after, err := s.d.scrape()
	if err != nil {
		return result{}, err
	}
	loaded := float64(s.tally(open))
	if err := s.check(ctx, w); err != nil {
		return result{}, err
	}
	s.d.stop()

	m, traced, wrong, err := tracedPass(w, rules, seed)
	if err != nil {
		return result{}, err
	}

	// Counts over the open loop, per event.
	moved := func(name string, labels map[string]string) float64 {
		return after.Sum(name, labels) - before.Sum(name, labels)
	}
	kind := func(k string) map[string]string { return map[string]string{"kind": k} }
	state := func(st string) map[string]string { return map[string]string{"state": st} }
	m["store.fsyncs_per_event"] = moved("store_fsync_seconds_count", nil) / loaded
	m["snoop.detections_per_event"] = moved("snoop_occurrences_total", nil) / loaded
	m["engine.firings_per_event"] = moved("engine_instances", state("completed")) / loaded
	m["engine.died_per_event"] = moved("engine_instances", state("died")) / loaded
	m["grh.dispatches_per_event"] = (moved("grh_requests_total", kind("query")) +
		moved("grh_requests_total", kind("test")) + moved("grh_requests_total", kind("action"))) / loaded
	m["grh.retries_per_event"] = moved("grh_retries_total", nil) / loaded
	hits, misses := moved("compile_cache_hits_total", nil), moved("compile_cache_misses_total", nil)
	if hits+misses > 0 {
		m["compilecache.hit_ratio"] = hits / (hits + misses)
	}

	// The client's view of the open loop.
	lat := latencies(open)
	var late []float64
	for _, sm := range open {
		late = append(late, ms(sm.lateness))
	}
	sort.Float64s(late)
	m["client.lateness_p95_ms"] = percentile(late, 95)
	m["client.latency_p95_ms"] = percentile(lat, 95)
	m["client.latency_p99_ms"] = percentile(lat, 99)
	m["trace.overhead_ratio"] = m["system.post_us"] * float64(w.batch) / 1000 / percentile(lat, 50)

	res := result{Attempted: s.sent + traced, Failed: s.failed + s.mismatches + wrong, Metrics: withUnits(perLayerUnits, m)}
	res.Correct = res.Failed == 0
	return res, nil
}

// perLayerUnits names every per-layer metric of BENCHMARK.json with its unit.
var perLayerUnits = map[string]string{
	"system.post_us": "us", "system.admission_us": "us",
	"xmltree.parse_us": "us", "xmltree.serialize_us": "us",
	"store.append_us": "us", "store.fsyncs_per_event": "count", "store.journal_bytes_per_event": "B",
	"events.publish_us": "us", "events.match_us": "us", "events.registrations": "count",
	"snoop.feed_us": "us", "snoop.detections_per_event": "count",
	"engine.on_detection_us": "us", "engine.self_us": "us", "engine.register_us": "us",
	"engine.firings_per_event": "count", "engine.died_per_event": "count",
	"grh.dispatch_us.query": "us", "grh.dispatch_us.test": "us", "grh.dispatch_us.action": "us",
	"grh.self_us": "us", "grh.dispatches_per_event": "count", "grh.retries_per_event": "count",
	"protocol.encode_us": "us", "protocol.decode_us": "us",
	"services.xquery.handle_us": "us", "services.test.handle_us": "us", "services.action.handle_us": "us",
	"services.opaque_store.serve_us": "us", "services.opaque_xquery.serve_us": "us",
	"bindings.join_us": "us", "bindings.tuples_joined_per_event": "count",
	"compilecache.hit_ratio": "ratio",
	"client.lateness_p95_ms": "ms", "client.latency_p95_ms": "ms", "client.latency_p99_ms": "ms",
	"trace.coverage_ratio": "ratio", "trace.overhead_ratio": "ratio",
}
