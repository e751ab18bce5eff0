// Package services implements the component language services of the
// paper's service-oriented architecture (Fig. 3): the Atomic Event Matcher
// and SNOOP detection services (event components), the XQuery-lite query
// service (framework-aware, the Saxon stand-in), a framework-unaware
// XML store queried by raw HTTP GET (the eXist stand-in of Fig. 9), a
// Datalog query service (LP-style), a test evaluator and action executors.
//
// Each service has an in-process core implementing grh.Service plus an
// http.Handler wrapper speaking the eca:request/log:answers wire protocol,
// so the same code runs embedded (tests, quickstart) and distributed
// (cmd/ecad, the Fig. 3 architecture).
package services

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/grh"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/xmltree"
)

// Language namespace URIs of the bundled component languages. SNOOP's is
// snoop.NS; atomic event patterns are domain-level and need none.
const (
	// XQueryNS identifies the XQuery-lite query language.
	XQueryNS = "http://www.semwebtech.org/languages/2006/xquery"
	// DatalogNS identifies the Datalog (LP-style) query language.
	DatalogNS = "http://www.semwebtech.org/languages/2006/datalog"
	// TestNS identifies the comparison-test language.
	TestNS = "http://www.semwebtech.org/languages/2006/test"
	// StoreNS identifies the XML-store update action language.
	StoreNS = "http://www.semwebtech.org/languages/2006/xmlstore"
	// MatcherNS identifies the Atomic Event Matcher (the registry default
	// for event components whose expression is a bare domain pattern).
	MatcherNS = "http://www.semwebtech.org/languages/2006/atomic-events"
	// ActionNS identifies the domain action executor (the default for
	// action components whose expression is a bare domain action).
	ActionNS = "http://www.semwebtech.org/languages/2006/actions"
)

// DocStore is a named collection of XML documents shared by query services
// and update actions — the "Web resources" of the running example. Safe for
// concurrent use.
type DocStore struct {
	mu   sync.RWMutex
	docs map[string]*xmltree.Node
}

// NewDocStore returns an empty store.
func NewDocStore() *DocStore {
	return &DocStore{docs: map[string]*xmltree.Node{}}
}

// Put stores (or replaces) a document under a URI.
func (s *DocStore) Put(uri string, doc *xmltree.Node) {
	s.mu.Lock()
	s.docs[uri] = doc
	s.mu.Unlock()
}

// Get returns the document stored under uri.
func (s *DocStore) Get(uri string) (*xmltree.Node, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	d, ok := s.docs[uri]
	return d, ok
}

// URIs lists the stored document URIs, sorted.
func (s *DocStore) URIs() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.docs))
	for u := range s.docs {
		out = append(out, u)
	}
	sort.Strings(out)
	return out
}

// Resolver adapts the store to the xq doc() resolver signature.
func (s *DocStore) Resolver() func(uri string) (*xmltree.Node, error) {
	return func(uri string) (*xmltree.Node, error) {
		d, ok := s.Get(uri)
		if !ok {
			return nil, fmt.Errorf("services: no document %q in store", uri)
		}
		return d, nil
	}
}

// Update applies f to the document under uri while holding the store lock,
// for read-modify-write action executions.
func (s *DocStore) Update(uri string, f func(doc *xmltree.Node) error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.docs[uri]
	if !ok {
		return fmt.Errorf("services: no document %q in store", uri)
	}
	return f(d)
}

// --- HTTP plumbing ------------------------------------------------------------------

// Handler wraps a framework-aware service core as an http.Handler speaking
// the wire protocol: POST eca:request, 200 log:answers.
func Handler(svc grh.Service) http.Handler { return NewHandler(svc, nil, nil) }

// NewHandler is the full wire-protocol handler: request counters and
// per-phase latency histograms on hub, structured request logging on lg
// (both optional), and — the server half of distributed rule-instance
// tracing — when the request carries an X-ECA-Trace-Id header, the
// handler times its own phases (request parse, expression evaluation,
// answer-markup encoding, with tuples in/out) and piggybacks them as a
// log:trace element in the answer envelope so the GRH stitches them
// under the dispatch's client span. Requests without the header get the
// plain PR-1-shaped answer, byte-identical to before.
func NewHandler(svc grh.Service, hub *obs.Hub, lg *obs.Logger) http.Handler {
	reg := hub.Metrics()
	requests := reg.CounterVec("service_requests_total", "Requests handled by component language services, by request kind.", "kind")
	errors := reg.CounterVec("service_errors_total", "Requests a component language service failed to handle, by request kind.", "kind")
	seconds := reg.HistogramVec("service_request_seconds", "Component service request handling latency by request kind.", nil, "kind")
	phases := reg.HistogramVec("service_phase_seconds", "Server-side request phase latency (parse, evaluate, encode), by phase.", nil, "phase")
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST an eca:request document", http.StatusMethodNotAllowed)
			return
		}
		traceID := r.Header.Get(protocol.TraceIDHeader)
		parent := r.Header.Get(protocol.ParentSpanHeader)
		rlog := lg
		if traceID != "" {
			rlog = rlog.With(obs.FieldTraceID, traceID)
		}
		parseStart := time.Now()
		doc, err := xmltree.Parse(io.LimitReader(r.Body, 16<<20))
		if err != nil {
			rlog.Error("service request rejected", "reason", "xml", "error", err.Error())
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		req, err := protocol.DecodeRequest(doc)
		if err != nil {
			rlog.Error("service request rejected", "reason", "envelope", "error", err.Error())
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		parseDur := time.Since(parseStart)
		phases.With("parse").Observe(parseDur.Seconds())
		tuplesIn := req.Bindings.Size()
		kind := string(req.Kind)
		requests.With(kind).Inc()
		rlog = rlog.With(obs.FieldRule, req.RuleID, obs.FieldComponent, req.Component)

		evalStart := time.Now()
		a, err := svc.Handle(req)
		evalDur := time.Since(evalStart)
		seconds.With(kind).Observe(evalDur.Seconds())
		phases.With("evaluate").Observe(evalDur.Seconds())
		if err != nil {
			errors.With(kind).Inc()
			rlog.Error("service request failed", "kind", kind, "error", err.Error())
			http.Error(w, err.Error(), http.StatusUnprocessableEntity)
			return
		}

		encStart := time.Now()
		envelope := protocol.EncodeAnswers(a)
		body := envelope.String()
		encDur := time.Since(encStart)
		phases.With("encode").Observe(encDur.Seconds())
		if traceID != "" {
			// The encode span's own cost is known only after encoding, so
			// the log:trace element is appended to the already-built
			// envelope rather than threaded through EncodeAnswers.
			envelope.Append(protocol.EncodeTraceElement(traceID, parent, []protocol.TraceSpan{
				{Phase: "parse", Start: parseStart, Duration: parseDur, TuplesIn: tuplesIn},
				{Phase: "evaluate", Start: evalStart, Duration: evalDur, TuplesIn: tuplesIn, TuplesOut: len(a.Rows)},
				{Phase: "encode", Start: encStart, Duration: encDur, TuplesOut: len(a.Rows)},
			}))
			body = envelope.String()
		}
		rlog.Debug("service request handled", "kind", kind,
			"tuples_in", tuplesIn, "tuples_out", len(a.Rows))
		w.Header().Set("Content-Type", "application/xml")
		io.WriteString(w, body)
	})
}

// deliverClient is the fallback HTTP client for remote detection
// deliveries: like the GRH's, it is bounded (never http.DefaultClient,
// which has no timeout).
var deliverClient = &http.Client{Timeout: grh.DefaultTimeout}

// Deliverer posts asynchronous detection answers either to a local sink or
// to a remote ReplyTo URL, depending on how the event component was
// registered.
type Deliverer struct {
	// Local receives answers for registrations without a ReplyTo.
	Local func(*protocol.Answer)
	// Client is used for remote deliveries; a shared client with
	// grh.DefaultTimeout when nil.
	Client *http.Client
	// Obs receives delivery counters (service_detections_total); nil
	// disables instrumentation.
	Obs *obs.Hub

	once          sync.Once
	localDetected *obs.Counter
	httpDetected  *obs.Counter
}

// Deliver routes one detection answer.
func (d *Deliverer) Deliver(a *protocol.Answer, replyTo string) error {
	d.once.Do(func() {
		vec := d.Obs.Metrics().CounterVec("service_detections_total", "Detection answers delivered by event services, by transport.", "transport")
		d.localDetected = vec.With("local")
		d.httpDetected = vec.With("http")
	})
	if replyTo == "" {
		d.localDetected.Inc()
	} else {
		d.httpDetected.Inc()
	}
	if replyTo == "" {
		if d.Local == nil {
			return fmt.Errorf("services: no local detection sink configured")
		}
		d.Local(a)
		return nil
	}
	client := d.Client
	if client == nil {
		client = deliverClient
	}
	body := protocol.EncodeAnswers(a).String()
	resp, err := client.Post(replyTo, "application/xml", strings.NewReader(body))
	if err != nil {
		return fmt.Errorf("services: deliver to %s: %w", replyTo, err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("services: deliver to %s: HTTP %d", replyTo, resp.StatusCode)
	}
	return nil
}

// unwrapOpaque extracts the expression text when the GRH wrapped an opaque
// component, else returns ok=false.
func unwrapOpaque(expr *xmltree.Node) (string, bool) {
	if expr != nil && expr.Name.Space == protocol.ECANS && expr.Name.Local == "opaque" {
		return strings.TrimSpace(expr.TextContent()), true
	}
	return "", false
}
