// Package grh implements the Generic Request Handler of Section 4.4: the
// mediator between the ECA engine and the heterogeneous component language
// services. It inspects the language (namespace URI) of a component,
// resolves an appropriate processor from its registry, and forwards the
// request in the form the processor understands:
//
//   - framework-aware services receive the full eca:request envelope
//     (in-process call or HTTP POST) and answer with log:answers;
//   - framework-unaware (opaque) services receive a raw query string via
//     HTTP GET, once per input tuple, with variables substituted by their
//     values; the GRH re-wraps their raw results as functional results —
//     unless the service happens to return a log:answers document itself
//     (Fig. 10's "faked" framework awareness), which is decoded directly.
package grh

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"time"
	"unicode/utf8"

	"repro/internal/bindings"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/ruleml"
	"repro/internal/xmltree"
)

// DefaultTimeout bounds every HTTP call to a remote component service
// unless overridden with WithTimeout or SetClient.
const DefaultTimeout = 10 * time.Second

// Service is the in-process interface of a framework-aware component
// language service. Event services deliver detections asynchronously
// through the sink they were constructed with and answer registration
// requests with an empty Answer.
type Service interface {
	Handle(req *protocol.Request) (*protocol.Answer, error)
}

// ServiceFunc adapts a function to the Service interface.
type ServiceFunc func(req *protocol.Request) (*protocol.Answer, error)

// Handle calls f.
func (f ServiceFunc) Handle(req *protocol.Request) (*protocol.Answer, error) { return f(req) }

// Descriptor describes one registered language processor, mirroring the
// language resource descriptions of Fig. 1 (language → processor →
// service).
type Descriptor struct {
	// Language is the namespace URI the processor implements.
	Language string
	// Name is a human-readable label ("SNOOP detection service").
	Name string
	// Kinds lists the component kinds the processor accepts.
	Kinds []ruleml.ComponentKind
	// FrameworkAware services understand eca:request/log:answers; the
	// others get opaque mediation.
	FrameworkAware bool
	// Local is the in-process implementation; when nil, Endpoint is used.
	Local Service
	// Endpoint is the HTTP URL of a remote processor.
	Endpoint string
	// Compile turns a component of this language into its compiled form,
	// once, at registration (see GRH.Compile); the engine keeps the result
	// with the rule and hands it back on every dispatch as
	// Component.Compiled. Nil when the language has nothing to compile.
	Compile func(ruleml.Component) (any, error)
}

// TraceFunc observes GRH traffic for the message-flow reproductions:
// direction is "→" (request) or "←" (answer), peer names the service.
type TraceFunc func(direction, peer string, payload *xmltree.Node)

// GRH is the Generic Request Handler. Safe for concurrent use.
type GRH struct {
	mu       sync.RWMutex
	byLang   map[string]*Descriptor
	defaults map[ruleml.ComponentKind]string // kind → language URI fallback
	client   *http.Client
	timeout  time.Duration
	trace    TraceFunc
	met      metrics
	log      *obs.Logger

	retry    RetryPolicy
	breakers *breakerSet // nil: circuit breaking disabled

	// Clock and sleep hooks, replaced in tests to make retry and breaker
	// timing deterministic.
	now   func() time.Time
	sleep func(time.Duration)
}

// metrics are the GRH's observability instruments; all nil-safe, so an
// uninstrumented GRH pays only nil receiver checks.
type metrics struct {
	requests     *obs.CounterVec   // grh_requests_total{kind}
	dispatch     *obs.HistogramVec // grh_dispatch_seconds{language,mode}
	errors       *obs.CounterVec   // grh_errors_total{reason}
	services     *obs.CounterVec   // service_requests_total{kind} (in-process boundary)
	retries      *obs.CounterVec   // grh_retries_total{kind}
	breakerState *obs.GaugeVec     // grh_breaker_state{endpoint}
	breakerOpen  *obs.CounterVec   // grh_breaker_open_total{endpoint}
}

func newMetrics(h *obs.Hub) metrics {
	r := h.Metrics()
	return metrics{
		requests:     r.CounterVec("grh_requests_total", "Component requests dispatched by the Generic Request Handler, by request kind.", "kind"),
		dispatch:     r.HistogramVec("grh_dispatch_seconds", "GRH dispatch latency by component language and mediation mode (local, aware, opaque).", nil, "language", "mode"),
		errors:       r.CounterVec("grh_errors_total", "GRH dispatch failures by reason (resolve, service, timeout, transport, http-status, decode, config, breaker).", "reason"),
		services:     r.CounterVec("service_requests_total", "Requests handled by component language services, by request kind.", "kind"),
		retries:      r.CounterVec("grh_retries_total", "GRH dispatch retries by request kind (idempotent kinds only).", "kind"),
		breakerState: r.GaugeVec("grh_breaker_state", "Circuit breaker state per service endpoint (0 closed, 1 half-open, 2 open).", "endpoint"),
		breakerOpen:  r.CounterVec("grh_breaker_open_total", "Circuit breaker trips (transitions to open) per service endpoint.", "endpoint"),
	}
}

// Option configures a GRH at construction time.
type Option func(*GRH)

// WithTimeout bounds HTTP calls to remote services (applies to the GRH's
// own client; ignored after SetClient). d ≤ 0 keeps DefaultTimeout.
func WithTimeout(d time.Duration) Option {
	return func(g *GRH) {
		if d > 0 {
			g.timeout = d
		}
	}
}

// WithObs installs the observability hub the GRH reports metrics to.
func WithObs(h *obs.Hub) Option { return func(g *GRH) { g.met = newMetrics(h) } }

// WithLog installs the structured logger dispatch failures, retries and
// breaker transitions are reported to (nil-safe: a nil logger discards).
func WithLog(l *obs.Logger) Option { return func(g *GRH) { g.log = l } }

// WithRetry enables retry with exponential backoff for idempotent
// dispatches (queries and tests). A policy with MaxAttempts ≤ 1 keeps
// retry disabled.
func WithRetry(p RetryPolicy) Option { return func(g *GRH) { g.retry = p } }

// WithBreaker enables the per-endpoint circuit breaker. A policy with
// FailureThreshold ≤ 0 keeps circuit breaking disabled.
func WithBreaker(p BreakerPolicy) Option {
	return func(g *GRH) {
		if p.Enabled() {
			g.breakers = newBreakerSet(p)
		} else {
			g.breakers = nil
		}
	}
}

// New returns an empty GRH. Remote calls use a dedicated HTTP client with
// DefaultTimeout (never http.DefaultClient, which has none) over the shared
// keep-alive protocol.Transport.
func New(opts ...Option) *GRH {
	g := &GRH{
		byLang:   map[string]*Descriptor{},
		defaults: map[ruleml.ComponentKind]string{},
		timeout:  DefaultTimeout,
		now:      time.Now,
		sleep:    time.Sleep,
	}
	for _, o := range opts {
		o(g)
	}
	if g.client == nil {
		g.client = &http.Client{Timeout: g.timeout, Transport: protocol.Transport}
	}
	return g
}

// SetClient replaces the HTTP client used for remote services. Safe to
// call concurrently with Dispatch.
func (g *GRH) SetClient(c *http.Client) {
	g.mu.Lock()
	g.client = c
	g.mu.Unlock()
}

// httpClient returns the current HTTP client under the read lock; every
// remote call resolves the client through here so SetClient never races
// with an in-flight Dispatch.
func (g *GRH) httpClient() *http.Client {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.client
}

// SetTrace installs a traffic observer (nil disables tracing).
func (g *GRH) SetTrace(t TraceFunc) {
	g.mu.Lock()
	g.trace = t
	g.mu.Unlock()
}

// tracer returns the installed traffic observer; nil means nobody looks,
// so callers that build a payload only to trace it check first.
func (g *GRH) tracer() TraceFunc {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.trace
}

func (g *GRH) emitTrace(direction, peer string, payload *xmltree.Node) {
	if t := g.tracer(); t != nil {
		t(direction, peer, payload)
	}
}

// Register adds a language processor to the registry, replacing any
// previous registration for the same language.
func (g *GRH) Register(d Descriptor) error {
	if d.Language == "" {
		return fmt.Errorf("grh: descriptor without language URI")
	}
	if d.Local == nil && d.Endpoint == "" {
		return fmt.Errorf("grh: descriptor %q has neither a local service nor an endpoint", d.Language)
	}
	g.mu.Lock()
	g.byLang[d.Language] = &d
	g.mu.Unlock()
	return nil
}

// SetDefault makes the given language the fallback processor for a
// component kind, used when a component's expression is a bare
// domain-level pattern (e.g. an atomic event pattern with no event-language
// markup, which goes to the Atomic Event Matcher per Section 4.2).
func (g *GRH) SetDefault(kind ruleml.ComponentKind, language string) {
	g.mu.Lock()
	g.defaults[kind] = language
	g.mu.Unlock()
}

// Languages returns the registered language URIs, sorted.
func (g *GRH) Languages() []string {
	g.mu.RLock()
	defer g.mu.RUnlock()
	out := make([]string, 0, len(g.byLang))
	for l := range g.byLang {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}

// Lookup returns the descriptor for a language URI.
func (g *GRH) Lookup(language string) (*Descriptor, bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	d, ok := g.byLang[language]
	return d, ok
}

// resolve finds the processor for a component: its language's, else its
// kind's default. An opaque event component gets no default: it names its
// language, and the event default, the atomic matcher, would take the
// <eca:opaque> wrapper for a pattern that never fires.
func (g *GRH) resolve(c ruleml.Component) (*Descriptor, error) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	if c.Language != "" {
		if d, ok := g.byLang[c.Language]; ok {
			return d, nil
		}
		if c.Opaque && c.Kind == ruleml.EventComponent {
			return nil, fmt.Errorf("grh: no processor for opaque event language %.64s", c.Language)
		}
	}
	if def, ok := g.defaults[c.Kind]; ok {
		if d, ok := g.byLang[def]; ok {
			return d, nil
		}
	}
	if c.Language == "" {
		return nil, fmt.Errorf("grh: no default %s processor registered", c.Kind)
	}
	return nil, fmt.Errorf("grh: no processor for language %s", c.Language)
}

// Compile compiles a component with the processor Dispatch would send it
// to (its language's, else its kind's default), for the caller to keep and
// pass back on Component.Compiled. It compiles nothing (nil, nil) for a
// component pinned to a service URI, one no processor is registered for,
// or one whose processor has no Compile or does not accept its kind: those
// expressions are left to the service, which reads their text. An opaque
// event component in a language no processor is registered for is an
// error: no service could detect it (resolve).
func (g *GRH) Compile(c ruleml.Component) (any, error) {
	if c.Service != "" {
		return nil, nil
	}
	d, err := g.resolve(c)
	if err != nil && c.Opaque && c.Kind == ruleml.EventComponent {
		return nil, err
	}
	if err != nil || d.Compile == nil || !kindAllowed(d, c.Kind) {
		return nil, nil
	}
	return d.Compile(c)
}

// Component carries what the GRH needs to evaluate one rule component: the
// parsed component plus the rule id and input bindings.
type Component struct {
	Rule     string
	Comp     ruleml.Component
	Bindings *bindings.Relation
	// Tenant is the namespace the dispatch acts within (empty = default
	// tenant). It rides on the request envelope so multi-tenant event
	// services route registrations to the right tenant's space.
	Tenant string
	// ReplyTo is the detection callback URL for event registrations
	// handled by remote services.
	ReplyTo string
	// Compiled is the component's compiled form as GRH.Compile made it at
	// registration (nil when there is none). It rides on the request to an
	// in-process service only; the wire protocol never carries it.
	Compiled any
	// Trace is the live rule-instance trace this dispatch belongs to;
	// its id travels in the X-ECA-Trace-Id header of every outbound HTTP
	// request so services can report correlated server-side spans. Nil
	// (untraced) is always valid.
	Trace *obs.Instance
}

// Dispatch evaluates a component request and returns the service's answer:
// it resolves the processor and forwards the request in the form the
// processor understands. Every dispatch reaches the service, so a query
// sees the service's data as the previous action left it (§4.3–4.4).
// Event registrations return an empty answer; detections arrive through the
// event service's sink (in-process) or the ReplyTo callback (remote).
func (g *GRH) Dispatch(kind protocol.RequestKind, c Component) (*protocol.Answer, error) {
	g.met.requests.With(string(kind)).Inc()
	start := time.Now()
	mode := "aware"
	defer func() {
		g.met.dispatch.With(langLabel(c.Comp.Language), mode).Observe(obs.Since(start))
	}()
	req := &protocol.Request{
		Kind:      kind,
		RuleID:    c.Rule,
		Component: c.Comp.ID,
		Language:  c.Comp.Language,
		Bindings:  c.Bindings,
		ReplyTo:   c.ReplyTo,
		Tenant:    c.Tenant,
		Compiled:  c.Compiled,
	}
	if c.Comp.Opaque {
		// Directly addressed framework-unaware service (uri attribute)?
		if c.Comp.Service != "" {
			if d, ok := g.Lookup(c.Comp.Language); !ok || !d.FrameworkAware {
				if ok && !kindAllowed(d, c.Comp.Kind) {
					return nil, g.kindRejected(d, c)
				}
				mode = "opaque"
				return g.opaqueMediateVia(kind, c, c.Comp.Service)
			}
		}
		// Opaque text for a registered language: wrap as an expression the
		// service's own parser handles.
		expr := xmltree.NewElement(protocol.ECANS, "opaque")
		expr.SetAttr("", "language", c.Comp.Language)
		expr.AppendText(c.Comp.Text)
		req.Expression = expr
	} else {
		req.Expression = c.Comp.Expression
	}
	d, err := g.resolve(c.Comp)
	if err != nil {
		g.met.errors.With("resolve").Inc()
		g.log.Error("grh dispatch failed", "reason", "resolve",
			obs.FieldTraceID, c.Trace.ID(), obs.FieldRule, c.Rule,
			obs.FieldComponent, c.Comp.ID, "error", err.Error())
		return nil, err
	}
	// The kind restriction applies to every resolved descriptor —
	// framework-unaware ones included, so a query-only opaque service can
	// never be sent an action dispatch.
	if !kindAllowed(d, c.Comp.Kind) {
		return nil, g.kindRejected(d, c)
	}
	if !d.FrameworkAware {
		mode = "opaque"
		return g.opaqueMediateVia(kind, c, d.Endpoint)
	}
	if d.Local != nil {
		mode = "local"
		g.met.services.With(string(kind)).Inc()
		trace := g.tracer()
		if trace != nil {
			trace("→", d.name(), protocol.EncodeRequest(req))
		}
		a, err := d.Local.Handle(req)
		if err != nil {
			g.met.errors.With("service").Inc()
			g.log.Error("grh dispatch failed", "reason", "service",
				obs.FieldTraceID, c.Trace.ID(), obs.FieldRule, c.Rule,
				obs.FieldComponent, c.Comp.ID, "service", d.name(), "error", err.Error())
			return nil, fmt.Errorf("grh: %s: %w", d.name(), err)
		}
		if trace != nil {
			trace("←", d.name(), protocol.EncodeAnswers(a))
		}
		return a, nil
	}
	return g.httpDispatch(d, req, c.Trace.ID())
}

// langLabel collapses the empty language (bare domain-level components
// handled by a kind default) into a stable metric label.
func langLabel(language string) string {
	if language == "" {
		return "domain"
	}
	return language
}

// countHTTPErr classifies a transport-level error for grh_errors_total,
// separating timeouts (the signal a scaling deployment alerts on) from
// other transport failures.
func (g *GRH) countHTTPErr(err error) {
	if isTimeout(err) {
		g.met.errors.With("timeout").Inc()
		return
	}
	g.met.errors.With("transport").Inc()
}

// isTimeout reports whether err is a client/deadline timeout anywhere in
// its chain.
func isTimeout(err error) bool {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return true
	}
	return errors.Is(err, context.DeadlineExceeded)
}

func (d *Descriptor) name() string {
	if d.Name != "" {
		return d.Name
	}
	return d.Language
}

// kindRejected classifies and logs a dispatch refused because the
// resolved processor does not accept the component's kind.
func (g *GRH) kindRejected(d *Descriptor, c Component) error {
	g.met.errors.With("resolve").Inc()
	g.log.Error("grh dispatch failed", "reason", "resolve",
		obs.FieldTraceID, c.Trace.ID(), obs.FieldRule, c.Rule,
		obs.FieldComponent, c.Comp.ID, "service", d.name(),
		"error", fmt.Sprintf("kind %s not accepted", c.Comp.Kind))
	return fmt.Errorf("grh: processor %q does not accept %s components", d.Language, c.Comp.Kind)
}

func kindAllowed(d *Descriptor, k ruleml.ComponentKind) bool {
	if len(d.Kinds) == 0 {
		return true
	}
	for _, kk := range d.Kinds {
		if kk == k {
			return true
		}
	}
	return false
}

// setTraceHeaders stamps the trace-context propagation headers on an
// outbound service request; an empty trace id (untraced dispatch) stamps
// nothing.
func setTraceHeaders(hr *http.Request, traceID, parentSpan string) {
	if traceID == "" {
		return
	}
	hr.Header.Set(protocol.TraceIDHeader, traceID)
	if parentSpan != "" {
		hr.Header.Set(protocol.ParentSpanHeader, parentSpan)
	}
}

// httpDispatch POSTs the request envelope to a framework-aware remote
// service and decodes the log:answers response, with breaker admission
// and retry for idempotent request kinds (see exchange). The dispatch
// carries the rule instance's trace context in the X-ECA-Trace-Id /
// X-ECA-Parent-Span headers; a trace-aware service answers with a
// log:trace element whose server-side spans are passed up to the caller
// for stitching — but only when its echoed traceId matches the id this
// dispatch propagated, so a confused or caching service can never
// pollute another instance's trace.
func (g *GRH) httpDispatch(d *Descriptor, req *protocol.Request, traceID string) (*protocol.Answer, error) {
	payload := protocol.EncodeRequest(req)
	g.emitTrace("→", d.name(), payload)
	body, err := g.exchange(req.Kind, "POST", d.Endpoint, traceID, func(c *http.Client) (*http.Response, error) {
		hr, err := http.NewRequest(http.MethodPost, d.Endpoint, strings.NewReader(payload.String()))
		if err != nil {
			return nil, err
		}
		hr.Header.Set("Content-Type", "application/xml")
		setTraceHeaders(hr, traceID, req.Component)
		return c.Do(hr)
	})
	if err != nil {
		return nil, err
	}
	doc, err := xmltree.ParseString(string(body))
	if err != nil {
		g.met.errors.With("decode").Inc()
		return nil, fmt.Errorf("grh: %s: bad answer: %w", d.Endpoint, err)
	}
	a, err := protocol.DecodeAnswers(doc)
	if err != nil {
		g.met.errors.With("decode").Inc()
		return nil, fmt.Errorf("grh: %s: %w", d.Endpoint, err)
	}
	if a.TraceID != traceID {
		a.Trace, a.TraceID, a.TraceParent = nil, "", ""
	}
	g.emitTrace("←", d.name(), doc)
	return a, nil
}

// opaqueMediateVia implements the framework-unaware protocol of Fig. 9:
// one HTTP GET per input tuple, variables substituted into the query
// string, raw results re-wrapped as functional results. Per-tuple GETs
// get the same breaker admission and retry treatment as aware POSTs.
func (g *GRH) opaqueMediateVia(kind protocol.RequestKind, c Component, endpoint string) (*protocol.Answer, error) {
	if endpoint == "" {
		g.met.errors.With("config").Inc()
		return nil, fmt.Errorf("grh: opaque component %s has no service endpoint", c.Comp.ID)
	}
	if c.Comp.Kind == ruleml.EventComponent {
		g.met.errors.With("config").Inc()
		return nil, fmt.Errorf("grh: event components cannot use framework-unaware services")
	}
	a := &protocol.Answer{RuleID: c.Rule, Component: c.Comp.ID}
	tuples := c.Bindings.Tuples()
	if c.Bindings.Empty() {
		return a, nil
	}
	trace := g.tracer()
	for _, t := range tuples {
		q := SubstituteVars(c.Comp.Text, t)
		u := endpoint
		if strings.Contains(u, "?") {
			u += "&query=" + url.QueryEscape(q)
		} else {
			u += "?query=" + url.QueryEscape(q)
		}
		if trace != nil {
			trace("→", endpoint, traceGet(u, q))
		}
		body, err := g.exchange(kind, "GET", endpoint, c.Trace.ID(), func(cl *http.Client) (*http.Response, error) {
			hr, err := http.NewRequest(http.MethodGet, u, nil)
			if err != nil {
				return nil, err
			}
			setTraceHeaders(hr, c.Trace.ID(), c.Comp.ID)
			return cl.Do(hr)
		})
		if err != nil {
			return nil, err
		}
		rows, err := decodeOpaqueResults(t, string(body))
		if err != nil {
			g.met.errors.With("decode").Inc()
			return nil, fmt.Errorf("grh: %s: %w", endpoint, err)
		}
		a.Rows = append(a.Rows, rows...)
		if trace != nil {
			for _, r := range rows {
				trace("←", endpoint, protocol.EncodeAnswers(&protocol.Answer{Rows: []protocol.AnswerRow{r}}))
			}
		}
	}
	return a, nil
}

func traceGet(u, q string) *xmltree.Node {
	n := xmltree.NewElement(protocol.ECANS, "http-get")
	n.SetAttr("", "url", u)
	n.AppendText(q)
	return n
}

// decodeOpaqueResults turns a framework-unaware service's raw response into
// answer rows for one input tuple:
//   - a log:answers document (the Fig. 10 trick) is decoded directly, its
//     tuples joined with the input tuple;
//   - any other XML document yields one functional result per child element
//     of the root (or the root's text when it has no element children);
//   - a non-XML body yields one functional result per non-empty line.
func decodeOpaqueResults(input bindings.Tuple, body string) ([]protocol.AnswerRow, error) {
	trimmed := strings.TrimSpace(body)
	if trimmed == "" {
		return nil, nil
	}
	if strings.HasPrefix(trimmed, "<") {
		doc, err := xmltree.ParseString(trimmed)
		if err != nil {
			return nil, fmt.Errorf("unparsable XML response: %w", err)
		}
		root := doc.Root()
		if root.Name.Space == protocol.LogNS && root.Name.Local == "answers" {
			dec, err := protocol.DecodeAnswers(doc)
			if err != nil {
				return nil, err
			}
			var rows []protocol.AnswerRow
			for _, r := range dec.Rows {
				if !input.Compatible(r.Tuple) {
					continue
				}
				rows = append(rows, protocol.AnswerRow{Tuple: input.Merge(r.Tuple), Results: r.Results})
			}
			return rows, nil
		}
		var results []bindings.Value
		if kids := root.ChildElements(); len(kids) > 0 {
			for _, k := range kids {
				results = append(results, bindings.Fragment(k.Clone()))
			}
		} else {
			results = append(results, bindings.Str(strings.TrimSpace(root.TextContent())))
		}
		return []protocol.AnswerRow{{Tuple: input, Results: results}}, nil
	}
	var results []bindings.Value
	for _, line := range strings.Split(trimmed, "\n") {
		if s := strings.TrimSpace(line); s != "" {
			results = append(results, bindings.Str(s))
		}
	}
	return []protocol.AnswerRow{{Tuple: input, Results: results}}, nil
}

// SubstituteVars replaces $Name occurrences in an opaque query string with
// the values bound in the tuple. One left-to-right scan takes, at each $,
// the longest bound name that follows it, so $OwnCarX never hijacks
// $OwnCar, and never re-scans a substituted value: with A bound to "$B",
// $A yields "$B" whatever B is bound to.
func SubstituteVars(q string, t bindings.Tuple) string {
	i := strings.IndexByte(q, '$')
	if i < 0 {
		return q
	}
	var b strings.Builder
	start := 0
	for ; i >= 0; i = nextDollar(q, i+1) {
		best, found := "", false
		for n := range t {
			if (!found || len(n) > len(best)) && strings.HasPrefix(q[i+1:], n) {
				best, found = n, true
			}
		}
		if !found {
			continue
		}
		if start == 0 {
			b.Grow(len(q))
		}
		b.WriteString(q[start:i])
		b.WriteString(t[best].AsString())
		start = i + 1 + len(best)
		i += len(best)
	}
	if start == 0 {
		return q
	}
	b.WriteString(q[start:])
	return b.String()
}

// nextDollar returns the index of the first $ in q at or after from, or -1.
func nextDollar(q string, from int) int {
	if j := strings.IndexByte(q[from:], '$'); j >= 0 {
		return from + j
	}
	return -1
}

// truncate shortens s to at most n bytes, backing up to a rune boundary
// so multi-byte HTTP bodies never yield invalid UTF-8 in error messages.
func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	for n > 0 && !utf8.RuneStart(s[n]) {
		n--
	}
	return s[:n] + "…"
}
