package services

import (
	"fmt"
	"net/http"
	"strings"
	"sync"

	"repro/internal/bindings"
	"repro/internal/datalog"
	"repro/internal/grh"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/ruleml"
	"repro/internal/xmltree"
	"repro/internal/xpath"
	"repro/internal/xq"
)

// XQueryService is the framework-aware functional query service of Section
// 4.3 — the stand-in for the wrapped Saxon XQuery node. For every input
// tuple it evaluates the query with the tuple's variables bound and returns
// the result items as functional results (one <log:answer> per input tuple).
type XQueryService struct {
	docs       func(uri string) (*xmltree.Node, error)
	namespaces map[string]string
}

// NewXQueryService creates the service over a document store. The
// namespace map is offered to queries for prefixed name tests.
func NewXQueryService(store *DocStore, namespaces map[string]string) *XQueryService {
	return &XQueryService{docs: store.Resolver(), namespaces: namespaces}
}

// Handle implements grh.Service for query components.
func (s *XQueryService) Handle(req *protocol.Request) (*protocol.Answer, error) {
	if req.Kind != protocol.Query {
		return nil, fmt.Errorf("xqueryd: unsupported request kind %q", req.Kind)
	}
	q, err := compiledOr(req, xq.Compile)
	if err != nil {
		return nil, fmt.Errorf("xqueryd: %w", err)
	}
	a := &protocol.Answer{RuleID: req.RuleID, Component: req.Component}
	for _, t := range req.Bindings.Tuples() {
		ctx := &xq.Context{
			Docs:       s.docs,
			Vars:       tupleToXQVars(t, q.Uses()),
			Namespaces: s.namespaces,
		}
		seq, err := q.Eval(ctx)
		if err != nil {
			return nil, fmt.Errorf("xqueryd: %w", err)
		}
		row := protocol.AnswerRow{Tuple: t}
		for _, item := range seq {
			row.Results = append(row.Results, itemToValue(item))
		}
		a.Rows = append(a.Rows, row)
	}
	return a, nil
}

// compiledOr returns the request's compiled form when it is a T, as the
// engine kept it from registration; else it compiles the expression text
// (a request off the wire, or from a caller that compiled nothing).
func compiledOr[T any](req *protocol.Request, compile func(string) (T, error)) (T, error) {
	if v, ok := req.Compiled.(T); ok {
		return v, nil
	}
	text, err := queryText(req.Expression)
	if err != nil {
		var zero T
		return zero, err
	}
	return compile(text)
}

// compileComponent compiles a component's expression text, its opaque
// text or what queryText reads from its expression element, for
// grh.Descriptor.Compile.
func compileComponent[T any](c ruleml.Component, compile func(string) (T, error)) (any, error) {
	text := strings.TrimSpace(c.Text)
	var err error
	switch {
	case !c.Opaque:
		text, err = queryText(c.Expression)
	case text == "":
		err = fmt.Errorf("empty %s expression", c.Kind)
	}
	if err != nil {
		return nil, err
	}
	v, err := compile(text)
	if err != nil {
		return nil, err
	}
	return v, nil
}

// CompileXQuery compiles an XQuery-lite query component into its *xq.Query
// (the XQuery service's grh.Descriptor.Compile).
func CompileXQuery(c ruleml.Component) (any, error) { return compileComponent(c, xq.Compile) }

// CompileDatalog parses a Datalog query component into its goal
// datalog.Atom (the Datalog service's grh.Descriptor.Compile).
func CompileDatalog(c ruleml.Component) (any, error) { return compileComponent(c, datalog.ParseQuery) }

// CompileTest compiles a test component into its *xpath.Expr (the test
// evaluator's grh.Descriptor.Compile, and the engine's for the tests it
// evaluates itself).
func CompileTest(c ruleml.Component) (any, error) { return compileComponent(c, xpath.Compile) }

// queryText extracts the query source from the expression element: either
// the text content of a marked-up <xq:query> element or the wrapped opaque
// text.
func queryText(expr *xmltree.Node) (string, error) {
	if expr == nil {
		return "", fmt.Errorf("query component without expression")
	}
	if s, ok := unwrapOpaque(expr); ok {
		return s, nil
	}
	s := strings.TrimSpace(expr.TextContent())
	if s == "" {
		return "", fmt.Errorf("empty query expression")
	}
	return s, nil
}

// tupleToXQVars converts what the tuple binds of names, the variables a
// query reads, into XQuery values; the tuple's other variables are left
// alone.
func tupleToXQVars(t bindings.Tuple, names []string) map[string]xq.Sequence {
	vars := make(map[string]xq.Sequence, len(names))
	for _, name := range names {
		v, ok := t[name]
		if !ok {
			continue
		}
		switch v.Kind() {
		case bindings.XML:
			vars[name] = xq.Sequence{v.Node()}
		case bindings.Number:
			f, _ := v.AsNumber()
			vars[name] = xq.Sequence{f}
		case bindings.Bool:
			vars[name] = xq.Sequence{v.AsBool()}
		default:
			vars[name] = xq.Sequence{v.AsString()}
		}
	}
	return vars
}

func itemToValue(item xq.Item) bindings.Value {
	switch v := item.(type) {
	case *xmltree.Node:
		if v.Kind == xmltree.AttrNode || v.Kind == xmltree.TextNode {
			return bindings.Str(v.TextContent())
		}
		return bindings.Fragment(v.Clone())
	case float64:
		return bindings.Num(v)
	case bool:
		return bindings.Boolean(v)
	default:
		return bindings.Str(xq.ItemString(item))
	}
}

// DatalogService is the LP-style query service of Section 3: queries are
// goal atoms over a Datalog rulebase; variables shared with the input
// bindings act as constants, fresh variables extend the tuples — the
// "languages match free variables" behaviour.
type DatalogService struct {
	mu sync.RWMutex
	db *datalog.Database
	// program retained for AddFacts re-evaluation.
	program *datalog.Program
}

// NewDatalogService evaluates the rulebase once and serves queries over the
// materialized model.
func NewDatalogService(program *datalog.Program) (*DatalogService, error) {
	db, err := program.Eval()
	if err != nil {
		return nil, err
	}
	return &DatalogService{db: db, program: program}, nil
}

// AddFacts extends the rulebase and re-materializes the model.
func (s *DatalogService) AddFacts(facts []datalog.Rule) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.program.Rules = append(s.program.Rules, facts...)
	db, err := s.program.Eval()
	if err != nil {
		return err
	}
	s.db = db
	return nil
}

// Handle implements grh.Service for query components. The expression text
// is a goal atom, e.g. "owns(Person, Car)"; argument variables whose names
// are bound in an input tuple are substituted before matching.
func (s *DatalogService) Handle(req *protocol.Request) (*protocol.Answer, error) {
	if req.Kind != protocol.Query {
		return nil, fmt.Errorf("datalogd: unsupported request kind %q", req.Kind)
	}
	goal, err := compiledOr(req, datalog.ParseQuery)
	if err != nil {
		return nil, fmt.Errorf("datalogd: %w", err)
	}
	s.mu.RLock()
	db := s.db
	s.mu.RUnlock()
	a := &protocol.Answer{RuleID: req.RuleID, Component: req.Component}
	for _, t := range req.Bindings.Tuples() {
		bound := goal
		bound.Args = make([]datalog.Term, len(goal.Args))
		for i, arg := range goal.Args {
			if arg.IsVar() {
				if v, ok := t[arg.Var]; ok {
					bound.Args[i] = datalog.C(v)
					continue
				}
			}
			bound.Args[i] = arg
		}
		for _, res := range db.Query(bound).Tuples() {
			a.Rows = append(a.Rows, protocol.AnswerRow{Tuple: t.Merge(res)})
		}
	}
	return a, nil
}

// TestEvaluator evaluates test components: boolean comparison expressions
// over the bound variables, in XPath syntax (e.g. "$Class != ” and $N >
// 3"). Per Section 4.5 tests are "in general evaluated locally" — the
// engine embeds this evaluator, and it is also exposed as a service for
// rules that address a test language explicitly.
type TestEvaluator struct{}

// Handle implements grh.Service for test components: the answer contains
// exactly the input tuples satisfying the condition.
func (TestEvaluator) Handle(req *protocol.Request) (*protocol.Answer, error) {
	if req.Kind != protocol.Test {
		return nil, fmt.Errorf("testd: unsupported request kind %q", req.Kind)
	}
	expr, err := compiledOr(req, xpath.Compile)
	if err != nil {
		return nil, fmt.Errorf("testd: %w", err)
	}
	keep, err := EvalTest(expr, req.Bindings)
	if err != nil {
		return nil, err
	}
	return protocol.NewAnswer(req.RuleID, req.Component, keep), nil
}

// EvalTest filters a relation by a compiled boolean XPath condition over
// the bound variables (σ of Section 3). It converts only the variables the
// condition references.
func EvalTest(expr *xpath.Expr, rel *bindings.Relation) (*bindings.Relation, error) {
	ctx := &xpath.Context{Node: xmltree.NewDocument()}
	names := expr.Uses()
	if len(names) > 0 {
		ctx.Vars = make(map[string]xpath.Object, len(names))
	}
	var evalErr error
	out := rel.Select(func(t bindings.Tuple) bool {
		if evalErr != nil {
			return false
		}
		for _, name := range names {
			if v, ok := t[name]; ok {
				ctx.Vars[name] = xpathValue(v)
			} else {
				delete(ctx.Vars, name)
			}
		}
		ok, err := expr.EvalBool(ctx)
		if err != nil {
			evalErr = fmt.Errorf("test %q: %w", expr, err)
			return false
		}
		return ok
	})
	if evalErr != nil {
		return nil, evalErr
	}
	return out, nil
}

// xpathValue is a bound value as an XPath object.
func xpathValue(v bindings.Value) xpath.Object {
	switch v.Kind() {
	case bindings.XML:
		return xpath.NodeSet{v.Node()}
	case bindings.Number:
		f, _ := v.AsNumber()
		return f
	case bindings.Bool:
		return v.AsBool()
	default:
		return v.AsString()
	}
}

// memoBound is how many distinct query texts a framework-unaware stand-in
// keeps compiled. A new text that finds the memo full empties it first.
const memoBound = 256

// maxMemoText is the longest query text a stand-in keeps; a longer one is
// compiled on every request. With memoBound it caps a memo's texts at
// 1 MiB.
const maxMemoText = 4 << 10

// memo compiles each distinct query text a stand-in is sent once, for as
// long as it stays in the memo. Only successful compiles are kept: a text
// that does not compile is compiled, and refused, on every request.
type memo[T any] struct {
	compile func(string) (T, error)

	mu       sync.Mutex
	compiled map[string]T
}

func newMemo[T any](compile func(string) (T, error)) *memo[T] {
	return &memo[T]{compile: compile, compiled: make(map[string]T)}
}

// get returns text compiled, from the memo when it holds the text.
func (m *memo[T]) get(text string) (T, error) {
	m.mu.Lock()
	v, ok := m.compiled[text]
	m.mu.Unlock()
	if ok {
		return v, nil
	}
	v, err := m.compile(text)
	if err != nil || len(text) > maxMemoText {
		return v, err
	}
	m.mu.Lock()
	if len(m.compiled) >= memoBound {
		clear(m.compiled)
	}
	m.compiled[text] = v
	m.mu.Unlock()
	return v, nil
}

// OpaqueXMLStore is the framework-UNaware query node of Fig. 9 (the eXist
// stand-in): it is only an http.Handler — GET ?query=<xpath> evaluates the
// query against its document and returns a plain <results> document. It
// knows nothing of eca:request or log:answers; the GRH mediates.
type OpaqueXMLStore struct {
	doc        *xmltree.Node
	namespaces map[string]string
	requests   *obs.Counter
	queries    *memo[*xpath.Expr]
}

// NewOpaqueXMLStore serves queries against one document.
func NewOpaqueXMLStore(doc *xmltree.Node, namespaces map[string]string) *OpaqueXMLStore {
	return &OpaqueXMLStore{doc: doc, namespaces: namespaces, queries: newMemo(xpath.Compile)}
}

// SetObs counts this node's raw GETs into service_requests_total
// {kind="opaque-store"} on the hub; returns the receiver for chaining.
func (s *OpaqueXMLStore) SetObs(h *obs.Hub) *OpaqueXMLStore {
	s.requests = opaqueRequestCounter(h, "opaque-store")
	return s
}

// ServeHTTP implements the raw query protocol.
func (s *OpaqueXMLStore) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.requests.Inc()
	q := r.URL.Query().Get("query")
	if q == "" {
		http.Error(w, "missing query parameter", http.StatusBadRequest)
		return
	}
	expr, err := s.queries.get(q)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	res, err := expr.Eval(&xpath.Context{Node: s.doc, Namespaces: s.namespaces})
	if err != nil {
		http.Error(w, err.Error(), http.StatusUnprocessableEntity)
		return
	}
	out := xmltree.NewElement("", "results")
	switch v := res.(type) {
	case xpath.NodeSet:
		for _, n := range v {
			if n.Kind == xmltree.AttrNode || n.Kind == xmltree.TextNode {
				out.Append(xmltree.NewElement("", "value").AppendText(n.TextContent()))
			} else {
				out.Append(n.Clone())
			}
		}
	default:
		out.Append(xmltree.NewElement("", "value").AppendText(fmt.Sprintf("%v", v)))
	}
	w.Header().Set("Content-Type", "application/xml")
	fmt.Fprint(w, out.String())
}

// OpaqueXQueryNode is a framework-unaware XQuery endpoint addressed
// directly by URL: GET ?query=<xquery> evaluates the query against its
// document store and returns the raw result sequence. A query whose result
// is a log:answers document reproduces the Fig. 10 trick — a plain XQuery
// engine "faking" framework awareness by generating the answer markup
// itself.
type OpaqueXQueryNode struct {
	docs       func(uri string) (*xmltree.Node, error)
	namespaces map[string]string
	requests   *obs.Counter
	queries    *memo[*xq.Query]
}

// NewOpaqueXQueryNode serves raw XQuery-lite over a document store.
func NewOpaqueXQueryNode(store *DocStore, namespaces map[string]string) *OpaqueXQueryNode {
	return &OpaqueXQueryNode{docs: store.Resolver(), namespaces: namespaces, queries: newMemo(xq.Compile)}
}

// SetObs counts this node's raw GETs into service_requests_total
// {kind="opaque-xquery"} on the hub; returns the receiver for chaining.
func (s *OpaqueXQueryNode) SetObs(h *obs.Hub) *OpaqueXQueryNode {
	s.requests = opaqueRequestCounter(h, "opaque-xquery")
	return s
}

// opaqueRequestCounter resolves the shared service_requests_total family
// for a framework-unaware node.
func opaqueRequestCounter(h *obs.Hub, kind string) *obs.Counter {
	return h.Metrics().CounterVec("service_requests_total", "Requests handled by component language services, by request kind.", "kind").With(kind)
}

// ServeHTTP implements the raw query protocol.
func (s *OpaqueXQueryNode) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.requests.Inc()
	qs := r.URL.Query().Get("query")
	if qs == "" {
		http.Error(w, "missing query parameter", http.StatusBadRequest)
		return
	}
	q, err := s.queries.get(qs)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	seq, err := q.Eval(&xq.Context{Docs: s.docs, Namespaces: s.namespaces})
	if err != nil {
		http.Error(w, err.Error(), http.StatusUnprocessableEntity)
		return
	}
	w.Header().Set("Content-Type", "application/xml")
	if len(seq) == 1 {
		if n, ok := seq[0].(*xmltree.Node); ok && n.Kind == xmltree.ElementNode {
			fmt.Fprint(w, n.String())
			return
		}
	}
	out := xmltree.NewElement("", "results")
	for _, item := range seq {
		if n, ok := item.(*xmltree.Node); ok && n.Kind == xmltree.ElementNode {
			out.Append(n.Clone())
		} else {
			out.Append(xmltree.NewElement("", "value").AppendText(xq.ItemString(item)))
		}
	}
	fmt.Fprint(w, out.String())
}

var (
	_ grh.Service = (*XQueryService)(nil)
	_ grh.Service = (*DatalogService)(nil)
	_ grh.Service = TestEvaluator{}
)
