// Package protocol defines the XML wire format the ECA engine, the Generic
// Request Handler and the component-language services exchange, following
// Section 4.4 of the paper: requests carry a component expression plus the
// relevant input variable bindings; answers come back as <log:answers>
// messages holding tuples of variable bindings and/or functional results.
package protocol

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/bindings"
	"repro/internal/xmltree"
)

// Namespace URIs of the framework's own markup. They follow the REWERSE
// resource-naming style used in the paper.
const (
	// ECANS is the namespace of the ECA rule markup language (eca:rule,
	// eca:event, eca:query, eca:test, eca:action, eca:variable, eca:opaque)
	// and of the request envelopes.
	ECANS = "http://www.semwebtech.org/languages/2006/eca-ml"
	// LogNS is the namespace of answer markup: log:answers, log:answer,
	// log:variable and log:result.
	LogNS = "http://www.semwebtech.org/languages/2006/logic-ml"
)

// Trace-context propagation headers. The GRH stamps both on every
// outbound HTTP dispatch; framework-aware service handlers echo them in
// the optional <log:trace> element of their answer so the client can
// stitch server-side spans under the dispatch's client span. Services
// that ignore the headers remain fully protocol-conformant.
const (
	// TraceIDHeader carries the rule-instance id ("<rule>#<n>").
	TraceIDHeader = "X-ECA-Trace-Id"
	// ParentSpanHeader carries the client-side span the dispatch belongs
	// to — the component id within the rule, e.g. "query[2]".
	ParentSpanHeader = "X-ECA-Parent-Span"
	// TenantHeader names the tenant a request acts within, on client
	// calls (POST /engine/rules, POST /events) and on cluster
	// forwarding hops alike. Absent means the node's default tenant.
	TenantHeader = "X-ECA-Tenant"
)

// RequestKind enumerates the request envelopes the GRH sends to services.
type RequestKind string

// The request kinds.
const (
	// RegisterEvent submits an event component for continuous detection;
	// answers arrive asynchronously as detection messages.
	RegisterEvent RequestKind = "register-event"
	// UnregisterEvent withdraws a previously registered event component.
	UnregisterEvent RequestKind = "unregister-event"
	// Query evaluates a query component against the service's data.
	Query RequestKind = "query"
	// Test evaluates a test component over the input bindings.
	Test RequestKind = "test"
	// Action executes an action component once per input tuple.
	Action RequestKind = "action"
)

// Request is the envelope the GRH sends to a component language service:
// which rule and component it concerns, the component expression itself
// (in the component's own language), and the relevant input bindings.
type Request struct {
	Kind      RequestKind
	RuleID    string
	Component string // component id within the rule, e.g. "query[2]"
	// Language is the namespace URI of the component language, used by the
	// GRH for dispatch and echoed to services for self-description.
	Language string
	// Expression is the component expression element (e.g. <eca:event>…,
	// an <evt:…> operator tree, or an <eca:opaque> fragment).
	Expression *xmltree.Node
	// Bindings are the input variable bindings relevant to the component.
	Bindings *bindings.Relation
	// ReplyTo is the URL detection answers should be posted to; only
	// meaningful for RegisterEvent requests sent to remote services.
	ReplyTo string
	// Tenant is the namespace the request acts within. Empty means the
	// default tenant, which keeps the wire format of tenant-unaware
	// deployments byte-identical.
	Tenant string
}

// AnswerRow is one <log:answer> element: a tuple of variable bindings plus
// any functional results (<log:result> contents) produced for that tuple.
type AnswerRow struct {
	Tuple   bindings.Tuple
	Results []bindings.Value
}

// TraceSpan is one server-side timing phase a framework-aware service
// reports back in the optional <log:trace> element of its answer: how
// long the service spent parsing the request, evaluating the component
// expression and encoding the answer markup, with the binding-relation
// sizes it saw. Older clients ignore the element; older services simply
// never send it.
type TraceSpan struct {
	// Phase is "parse", "evaluate" or "encode".
	Phase string
	// Start is when the phase began (optional; zero when the service
	// chose not to report wall-clock times).
	Start time.Time
	// Duration is the phase's elapsed time.
	Duration time.Duration
	// TuplesIn / TuplesOut are the binding-relation sizes around the
	// phase (0 where not meaningful, e.g. TuplesOut of "parse").
	TuplesIn  int
	TuplesOut int
}

// Answer is the envelope a service returns (or posts asynchronously, for
// event detection): the produced tuples of variable bindings, and for
// functional-style services the per-tuple results to be bound by the
// surrounding <eca:variable>.
type Answer struct {
	RuleID    string
	Component string
	// Tenant is the namespace of the rule a detection is for, as in
	// Request.Tenant (empty: the default tenant, and no attribute).
	Tenant string
	// Rows holds one row per <log:answer> element, in message order.
	Rows []AnswerRow

	// TraceID echoes the X-ECA-Trace-Id the service received with the
	// request; set only when the answer carries a <log:trace> element.
	TraceID string
	// TraceParent echoes the X-ECA-Parent-Span header (the client-side
	// component span the server spans nest under).
	TraceParent string
	// Trace holds the server-side spans of the optional <log:trace>
	// answer-markup extension, in phase order.
	Trace []TraceSpan

	// AdmittedAt / PublishedAt carry the lifecycle timestamps of the
	// event occurrence behind a detection answer (zero for answers not
	// born from an admitted event, e.g. query/test replies). They ride
	// as optional attributes on <log:answers> so remote detection posts
	// keep the admit→action clock running across nodes; the monotonic
	// component is lost on the wire, which is acceptable at the
	// millisecond latencies the lifecycle histograms measure.
	AdmittedAt  time.Time
	PublishedAt time.Time
}

// NewAnswer builds an answer whose rows are the tuples of rel (results
// empty), the common case for LP-style services.
func NewAnswer(ruleID, component string, rel *bindings.Relation) *Answer {
	a := &Answer{RuleID: ruleID, Component: component}
	if rel != nil {
		for _, t := range rel.Tuples() {
			a.Rows = append(a.Rows, AnswerRow{Tuple: t})
		}
	}
	return a
}

// Clone returns a deep copy of the answer: rows, tuples, values (XML
// fragments included) and trace spans share no memory with the original.
// The GRH answer cache relies on this to hand every rule instance an
// independent copy — a cached relation must never be aliased across
// instances.
func (a *Answer) Clone() *Answer {
	if a == nil {
		return nil
	}
	b := *a
	if a.Trace != nil {
		b.Trace = append([]TraceSpan(nil), a.Trace...)
	}
	if a.Rows != nil {
		b.Rows = make([]AnswerRow, len(a.Rows))
		for i, r := range a.Rows {
			var nr AnswerRow
			if r.Tuple != nil {
				nr.Tuple = make(bindings.Tuple, len(r.Tuple))
				for k, v := range r.Tuple {
					nr.Tuple[k] = v.Clone()
				}
			}
			if r.Results != nil {
				nr.Results = make([]bindings.Value, len(r.Results))
				for j, v := range r.Results {
					nr.Results[j] = v.Clone()
				}
			}
			b.Rows[i] = nr
		}
	}
	return &b
}

// Relation collects the answer tuples (without results) into a relation.
func (a *Answer) Relation() *bindings.Relation {
	rel := bindings.NewRelation()
	for _, r := range a.Rows {
		rel.Add(r.Tuple)
	}
	return rel
}

// HasResults reports whether any row carries functional results.
func (a *Answer) HasResults() bool {
	for _, r := range a.Rows {
		if len(r.Results) > 0 {
			return true
		}
	}
	return false
}

// --- value encoding ---------------------------------------------------------

// EncodeValue renders a binding value as the content of a log:variable or
// log:result element, returning the child nodes and the type attribute.
func EncodeValue(v bindings.Value) (children []*xmltree.Node, typ string) {
	switch v.Kind() {
	case bindings.XML:
		return []*xmltree.Node{v.Node().Clone()}, "xml"
	case bindings.Number:
		return []*xmltree.Node{xmltree.NewText(v.AsString())}, "number"
	case bindings.Bool:
		return []*xmltree.Node{xmltree.NewText(v.AsString())}, "boolean"
	case bindings.URI:
		return []*xmltree.Node{xmltree.NewText(v.AsString())}, "uri"
	default:
		return []*xmltree.Node{xmltree.NewText(v.AsString())}, "string"
	}
}

// DecodeValue reconstructs a binding value from the children of a
// log:variable or log:result element and its type attribute. An element
// child yields an XML value regardless of the declared type; otherwise the
// text content is interpreted per the type attribute (default "string").
func DecodeValue(children []*xmltree.Node, typ string) (bindings.Value, error) {
	var elem *xmltree.Node
	text := ""
	for _, c := range children {
		switch c.Kind {
		case xmltree.ElementNode:
			if elem != nil {
				// Multiple fragments: wrap is the caller's job; treat the
				// first as the value to keep decoding total.
				continue
			}
			elem = c
		case xmltree.TextNode:
			text += c.Text
		}
	}
	if elem != nil {
		return bindings.Fragment(elem.Clone()), nil
	}
	switch typ {
	case "number":
		f, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return bindings.Value{}, fmt.Errorf("protocol: bad number %q: %w", text, err)
		}
		return bindings.Num(f), nil
	case "boolean":
		switch text {
		case "true", "1":
			return bindings.Boolean(true), nil
		case "false", "0":
			return bindings.Boolean(false), nil
		default:
			return bindings.Value{}, fmt.Errorf("protocol: bad boolean %q", text)
		}
	case "uri":
		return bindings.Ref(text), nil
	default:
		return bindings.Str(text), nil
	}
}

// --- answers markup ----------------------------------------------------------

// EncodeAnswers renders an Answer as a <log:answers> element:
//
//	<log:answers rule="R" component="C" tenant="T">
//	  <log:answer>
//	    <log:variable name="X" type="string">…</log:variable>
//	    <log:result>…</log:result>
//	  </log:answer>…
//	</log:answers>
func EncodeAnswers(a *Answer) *xmltree.Node {
	root := xmltree.NewElement(LogNS, "answers")
	root.SetAttr("xmlns", "log", LogNS)
	if a.RuleID != "" {
		root.SetAttr("", "rule", a.RuleID)
	}
	if a.Component != "" {
		root.SetAttr("", "component", a.Component)
	}
	if a.Tenant != "" {
		root.SetAttr("", "tenant", a.Tenant)
	}
	if !a.AdmittedAt.IsZero() {
		root.SetAttr("", "admitted", a.AdmittedAt.UTC().Format(time.RFC3339Nano))
	}
	if !a.PublishedAt.IsZero() {
		root.SetAttr("", "published", a.PublishedAt.UTC().Format(time.RFC3339Nano))
	}
	if len(a.Trace) > 0 {
		root.Append(EncodeTraceElement(a.TraceID, a.TraceParent, a.Trace))
	}
	for _, row := range a.Rows {
		ans := xmltree.NewElement(LogNS, "answer")
		for _, name := range row.Tuple.Vars() {
			children, typ := EncodeValue(row.Tuple[name])
			v := xmltree.NewElement(LogNS, "variable")
			v.SetAttr("", "name", name)
			v.SetAttr("", "type", typ)
			for _, c := range children {
				v.Append(c)
			}
			ans.Append(v)
		}
		for _, rv := range row.Results {
			children, typ := EncodeValue(rv)
			r := xmltree.NewElement(LogNS, "result")
			r.SetAttr("", "type", typ)
			for _, c := range children {
				r.Append(c)
			}
			ans.Append(r)
		}
		root.Append(ans)
	}
	return root
}

// EncodeTraceElement renders the optional <log:trace> extension, used
// both by EncodeAnswers and by service handlers that append the element
// to an already-encoded answer:
//
//	<log:trace traceId="travel#7" parent="query[1]">
//	  <log:span phase="parse" start="…" duration-ns="8300" tuples-in="2"/>
//	  <log:span phase="evaluate" duration-ns="412000" tuples-in="2" tuples-out="4"/>
//	  <log:span phase="encode" duration-ns="5100" tuples-out="4"/>
//	</log:trace>
func EncodeTraceElement(traceID, parent string, spans []TraceSpan) *xmltree.Node {
	tr := xmltree.NewElement(LogNS, "trace")
	if traceID != "" {
		tr.SetAttr("", "traceId", traceID)
	}
	if parent != "" {
		tr.SetAttr("", "parent", parent)
	}
	for _, s := range spans {
		sp := xmltree.NewElement(LogNS, "span")
		sp.SetAttr("", "phase", s.Phase)
		if !s.Start.IsZero() {
			sp.SetAttr("", "start", s.Start.UTC().Format(time.RFC3339Nano))
		}
		sp.SetAttr("", "duration-ns", strconv.FormatInt(s.Duration.Nanoseconds(), 10))
		if s.TuplesIn > 0 {
			sp.SetAttr("", "tuples-in", strconv.Itoa(s.TuplesIn))
		}
		if s.TuplesOut > 0 {
			sp.SetAttr("", "tuples-out", strconv.Itoa(s.TuplesOut))
		}
		tr.Append(sp)
	}
	return tr
}

// decodeTrace parses a <log:trace> element. It is deliberately lenient —
// the extension is optional, so a malformed attribute degrades to a zero
// field instead of failing the whole answer.
func decodeTrace(a *Answer, n *xmltree.Node) {
	a.TraceID = n.AttrValue("", "traceId")
	a.TraceParent = n.AttrValue("", "parent")
	for _, sp := range n.ChildElementsNamed(LogNS, "span") {
		s := TraceSpan{Phase: sp.AttrValue("", "phase")}
		if v := sp.AttrValue("", "start"); v != "" {
			if t, err := time.Parse(time.RFC3339Nano, v); err == nil {
				s.Start = t
			}
		}
		if ns, err := strconv.ParseInt(sp.AttrValue("", "duration-ns"), 10, 64); err == nil {
			s.Duration = time.Duration(ns)
		}
		s.TuplesIn, _ = strconv.Atoi(sp.AttrValue("", "tuples-in"))
		s.TuplesOut, _ = strconv.Atoi(sp.AttrValue("", "tuples-out"))
		a.Trace = append(a.Trace, s)
	}
}

// DecodeAnswers parses a <log:answers> element back into an Answer.
func DecodeAnswers(n *xmltree.Node) (*Answer, error) {
	n = n.Root()
	if n == nil || n.Name.Space != LogNS || n.Name.Local != "answers" {
		return nil, fmt.Errorf("protocol: expected log:answers, got %v", nodeName(n))
	}
	a := &Answer{
		RuleID:    n.AttrValue("", "rule"),
		Component: n.AttrValue("", "component"),
		Tenant:    n.AttrValue("", "tenant"),
	}
	// Lifecycle timestamps are optional and lenient: a malformed value
	// degrades to zero (no lifecycle accounting) rather than failing the
	// answer.
	if v := n.AttrValue("", "admitted"); v != "" {
		if t, err := time.Parse(time.RFC3339Nano, v); err == nil {
			a.AdmittedAt = t
		}
	}
	if v := n.AttrValue("", "published"); v != "" {
		if t, err := time.Parse(time.RFC3339Nano, v); err == nil {
			a.PublishedAt = t
		}
	}
	if tr := n.FirstChildElement(LogNS, "trace"); tr != nil {
		decodeTrace(a, tr)
	}
	for _, ansEl := range n.ChildElementsNamed(LogNS, "answer") {
		row := AnswerRow{Tuple: bindings.Tuple{}}
		for _, c := range ansEl.ChildElements() {
			if c.Name.Space != LogNS {
				continue
			}
			switch c.Name.Local {
			case "variable":
				name := c.AttrValue("", "name")
				if name == "" {
					return nil, fmt.Errorf("protocol: log:variable without name")
				}
				v, err := DecodeValue(c.Children, c.AttrValue("", "type"))
				if err != nil {
					return nil, fmt.Errorf("protocol: variable %s: %w", name, err)
				}
				row.Tuple[bindings.Intern(name)] = v
			case "result":
				v, err := DecodeValue(c.Children, c.AttrValue("", "type"))
				if err != nil {
					return nil, fmt.Errorf("protocol: result: %w", err)
				}
				row.Results = append(row.Results, v)
			}
		}
		a.Rows = append(a.Rows, row)
	}
	return a, nil
}

// --- request envelope ---------------------------------------------------------

// EncodeRequest renders a Request as an <eca:request> element:
//
//	<eca:request kind="query" rule="R" component="C" language="URI">
//	  <eca:expression>…component expression…</eca:expression>
//	  <log:answers>…input bindings…</log:answers>
//	</eca:request>
func EncodeRequest(r *Request) *xmltree.Node {
	root := xmltree.NewElement(ECANS, "request")
	root.SetAttr("xmlns", "eca", ECANS)
	root.SetAttr("", "kind", string(r.Kind))
	root.SetAttr("", "rule", r.RuleID)
	root.SetAttr("", "component", r.Component)
	if r.Language != "" {
		root.SetAttr("", "language", r.Language)
	}
	if r.ReplyTo != "" {
		root.SetAttr("", "replyTo", r.ReplyTo)
	}
	if r.Tenant != "" {
		root.SetAttr("", "tenant", r.Tenant)
	}
	expr := xmltree.NewElement(ECANS, "expression")
	if r.Expression != nil {
		expr.Append(r.Expression.Clone())
	}
	root.Append(expr)
	root.Append(EncodeAnswers(NewAnswer("", "", r.Bindings)))
	return root
}

// DecodeRequest parses an <eca:request> element back into a Request.
func DecodeRequest(n *xmltree.Node) (*Request, error) {
	n = n.Root()
	if n == nil || n.Name.Space != ECANS || n.Name.Local != "request" {
		return nil, fmt.Errorf("protocol: expected eca:request, got %v", nodeName(n))
	}
	r := &Request{
		Kind:      RequestKind(n.AttrValue("", "kind")),
		RuleID:    n.AttrValue("", "rule"),
		Component: n.AttrValue("", "component"),
		Language:  n.AttrValue("", "language"),
		ReplyTo:   n.AttrValue("", "replyTo"),
		Tenant:    n.AttrValue("", "tenant"),
		Bindings:  bindings.NewRelation(),
	}
	switch r.Kind {
	case RegisterEvent, UnregisterEvent, Query, Test, Action:
	default:
		return nil, fmt.Errorf("protocol: unknown request kind %q", n.AttrValue("", "kind"))
	}
	if expr := n.FirstChildElement(ECANS, "expression"); expr != nil {
		if kids := expr.ChildElements(); len(kids) > 0 {
			r.Expression = kids[0]
		}
	}
	if answers := n.FirstChildElement(LogNS, "answers"); answers != nil {
		a, err := DecodeAnswers(answers)
		if err != nil {
			return nil, err
		}
		r.Bindings = a.Relation()
	}
	return r, nil
}

func nodeName(n *xmltree.Node) string {
	if n == nil {
		return "nothing"
	}
	return n.Name.String()
}
