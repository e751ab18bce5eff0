// Package engine implements the ECA engine of Section 4: it registers
// rules, submits their event components for detection through the Generic
// Request Handler (Fig. 5), receives detection messages (Fig. 6), creates
// rule instances with the detected variable bindings, and drives each
// instance through its query, test and action components with the
// tuple-of-bindings join semantics of Section 3 (Figs. 7–11).
package engine

import (
	"cmp"
	"errors"
	"fmt"
	"log/slog"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/bindings"
	"repro/internal/grh"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/ruleml"
	"repro/internal/services"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// ErrDuplicateRule reports a Register of an id that is already live.
// Callers replaying rules from durable storage (where a startup rule may
// legitimately collide with a recovered one) match it with errors.Is.
var ErrDuplicateRule = errors.New("already registered")

// ErrBadExpression reports a Register rejected because a component
// expression failed registration-time compilation. The HTTP layer matches
// it with errors.Is to answer 400 (client error in the rule document)
// rather than 422.
var ErrBadExpression = errors.New("component expression does not compile")

// ErrNoRule reports an Unregister of a rule id the engine does not hold.
// It is wrapped, so test with errors.Is; any other error from Unregister
// means the rule existed and withdrawing its event registration failed.
var ErrNoRule = errors.New("no rule")

// Journal receives durable notifications of rule life-cycle changes; the
// store subsystem implements it to write the write-ahead journal. Both
// methods are called outside the engine lock, after the change took
// effect, with the rule's tenant in wire form ("" = default). A nil
// Journal is never called.
type Journal interface {
	// RuleRegistered reports a successful registration: the assigned rule
	// id, the original ECA-ML document (nil when the rule was built
	// programmatically) and the registration time.
	RuleRegistered(tenant, id string, doc *xmltree.Node, at time.Time)
	// RuleUnregistered reports a withdrawal.
	RuleUnregistered(tenant, id string)
}

// Logger receives human-readable evaluation traces; the ecabench harness
// uses it to print the message flows of the paper's figures.
type Logger interface {
	Logf(format string, args ...any)
}

// LoggerFunc adapts a function to the Logger interface.
type LoggerFunc func(format string, args ...any)

// Logf calls f.
func (f LoggerFunc) Logf(format string, args ...any) { f(format, args...) }

// Stats counts engine activity.
type Stats struct {
	RulesRegistered    int
	InstancesCreated   int
	InstancesCompleted int
	InstancesDied      int // relation became empty before the actions
	ActionRuns         int // action component dispatches (per instance per action)
}

// Engine is the ECA engine. Safe for concurrent use. Rule instances are
// admitted in the order detections arrive and run on whichever goroutine
// calls the run Admit returns — synchronously inside OnDetection — so a
// single-threaded event feed yields deterministic evaluation order.
//
// One engine serves every tenant: rules are keyed by (tenant, rule id),
// with the tenant in wire form (the empty string is the default tenant),
// and every dispatch, raised event, trace and per-tenant metric a rule
// produces carries its tenant.
type Engine struct {
	grh     *grh.GRH
	replyTo string
	log     Logger
	slog    *obs.Logger
	hub     *obs.Hub
	tr      *obs.Recorder
	met     metrics
	journal Journal

	mu      sync.Mutex
	rules   map[ruleKey]*RuleState
	tenants map[string]*tenantRules // tenants that own or owned a rule
	stats   Stats
	closed  bool
	// listen counts, per event name, the registered rules whose plan lists
	// it; wildcards counts the rules whose plan lists none, which listen to
	// every name.
	listen    map[xmltree.Name]int
	wildcards int

	inFlight sync.WaitGroup // instances admitted and not yet finished; Close drains it
}

// lifecycle carries the admission-side timestamps of the event behind a
// rule instance, threaded from POST /events through detection to the
// action ack so the stage histograms cover the whole pipeline. All
// fields are zero for instances not born from an admitted event
// (recovery replay, act:raise republication, periodic SNOOP
// occurrences), which are excluded from lifecycle accounting.
type lifecycle struct {
	admitted  time.Time // admission layer accepted the event
	published time.Time // event stream published it
	detected  time.Time // detection answer reached the engine
}

// ruleKey names a rule: its tenant's wire form and its id.
type ruleKey struct{ tenant, id string }

// tenantRules is one tenant's share of the engine: its live rule count,
// the engine_rules gauge that reports it, and the counter behind the
// rule-N ids minted for it.
type tenantRules struct {
	rules int
	seq   int
	gauge *obs.Gauge
}

func (lc lifecycle) observable() bool {
	return !lc.admitted.IsZero() && !lc.published.IsZero() && !lc.detected.IsZero()
}

// metrics are the engine's observability instruments; all nil-safe, so an
// uninstrumented engine pays only nil receiver checks on the hot path.
type metrics struct {
	instances   *obs.CounterVec   // engine_instances{state=created|completed|died}
	rules       *obs.GaugeVec     // engine_rules{tenant}
	detections  *obs.Counter      // engine_detections_total
	actionRuns  *obs.Counter      // engine_action_runs_total
	instanceSec *obs.Histogram    // engine_instance_seconds
	stepSec     *obs.HistogramVec // engine_step_seconds{kind}
	lifecycle   *obs.HistogramVec // event_lifecycle_seconds{stage,tenant}
	e2e         *obs.HistogramVec // event_e2e_seconds{rule,tenant}
}

// newMetrics registers the engine instruments. engine_rules carries a
// tenant label, one series per tenant that owns or owned a rule; the label
// holds the wire form, empty for the default tenant, keeping single-tenant
// scrapes unchanged.
func newMetrics(h *obs.Hub) metrics {
	r := h.Metrics()
	return metrics{
		instances:   r.CounterVec("engine_instances", "Rule instances by life-cycle state (created, completed, died).", "state"),
		rules:       r.GaugeVec("engine_rules", "Currently registered rules by tenant (empty label = default tenant).", "tenant"),
		detections:  r.Counter("engine_detections_total", "Event detection messages received."),
		actionRuns:  r.Counter("engine_action_runs_total", "Action component dispatches."),
		instanceSec: r.Histogram("engine_instance_seconds", "End-to-end rule-instance evaluation latency (detection to last action).", nil),
		stepSec:     r.HistogramVec("engine_step_seconds", "Per-component evaluation latency by component kind.", nil, "kind"),
		lifecycle:   r.HistogramVec("event_lifecycle_seconds", "Admitted-event latency by lifecycle stage: admit (admission to stream publish), detect (publish to engine receipt), dispatch (receipt through the query/test steps), action (action dispatch to ack). Completed instances only; the stages are contiguous, so their sums reconcile with event_e2e_seconds.", nil, "stage", "tenant"),
		e2e:         r.HistogramVec("event_e2e_seconds", "End-to-end admitted-event latency (admission to action ack) by rule. Completed instances only.", nil, "rule", "tenant"),
	}
}

// RuleState is the engine's bookkeeping for one registered rule.
type RuleState struct {
	// Rule is the engine's own copy of the rule (keep): its id and
	// components, and nothing that reaches the parsed document.
	Rule *ruleml.Rule
	// Tenant is the wire form of the tenant the rule belongs to ("" =
	// default).
	Tenant string
	// Registered is when the rule was registered (restored from the
	// journal after crash recovery).
	Registered time.Time
	// Firings counts completed instances (actions executed).
	Firings int
	// Died counts instances whose relation became empty.
	Died int
	// Plan is what the rule keeps of registration's one analysis. It is
	// shared: callers must not modify it.
	Plan Plan
}

// Plan is what a rule keeps of its one analysis, made from its compiled
// forms when it registers (Engine.Analyze): every dispatch's compiled form,
// the projection of each step's input and event routing read it, and
// nothing works these facts out again. The variables each component binds,
// which only validation reads, are not kept.
type Plan struct {
	// Forms holds each component's compiled form, in rule.Components()
	// order (0 is the event); nil where its language compiles nothing.
	Forms []any
	// Uses holds, for each query or test step in rule.Steps order, the
	// variables its form reads: its input's projection. Nil for a rule
	// without steps.
	Uses [][]string
}

// Names returns the event names the rule listens to, as its event form
// reports them (ruleml.Listener). Nil when the form reports none, as for
// opaque text: the rule then listens to every name.
func (p *Plan) Names() []xmltree.Name {
	if l, ok := p.Forms[0].(ruleml.Listener); ok {
		return l.Names()
	}
	return nil
}

// RuleInfo is a race-free snapshot of one rule's bookkeeping, as served
// by GET /engine/rules.
type RuleInfo struct {
	ID         string    `json:"id"`
	Registered time.Time `json:"registered"`
	Firings    int       `json:"firings"`
	Died       int       `json:"died"`
	// Owner is the cluster node holding the rule; set by the serving layer
	// on clustered deployments, absent (omitted) on single-node ones.
	Owner string `json:"owner,omitempty"`
	// Tenant is the namespace the rule belongs to, in wire form: absent
	// (omitted) for the default tenant, so single-tenant listings are
	// byte-identical to pre-tenant ones.
	Tenant string `json:"tenant,omitempty"`
}

// Option configures the engine.
type Option func(*Engine)

// WithReplyTo sets the detection callback URL passed to remote event
// services on registration.
func WithReplyTo(url string) Option { return func(e *Engine) { e.replyTo = url } }

// WithLogger installs an evaluation trace logger.
func WithLogger(l Logger) Option { return func(e *Engine) { e.log = l } }

// WithLog installs a structured logger: engine life-cycle events are
// emitted as leveled records carrying trace_id and rule fields, alongside
// (not replacing) the human-readable Logger traces the bench figures
// replay. A nil logger is a no-op.
func WithLog(l *obs.Logger) Option { return func(e *Engine) { e.slog = l } }

// WithObs installs the observability hub: engine counters and histograms
// go to its metrics registry, rule-instance spans to its trace recorder.
func WithObs(h *obs.Hub) Option { return func(e *Engine) { e.hub = h } }

// WithJournal installs the durable journal hook: every successful
// registration and withdrawal is reported to j after it takes effect, so
// a restarted engine can recover its rule set (see internal/store).
func WithJournal(j Journal) Option { return func(e *Engine) { e.journal = j } }

// New builds an engine over a Generic Request Handler.
func New(g *grh.GRH, opts ...Option) *Engine {
	e := &Engine{grh: g, rules: map[ruleKey]*RuleState{}, tenants: map[string]*tenantRules{}, listen: map[xmltree.Name]int{}}
	for _, o := range opts {
		o(e)
	}
	e.met = newMetrics(e.hub)
	e.tr = e.hub.Traces()
	e.tenantLocked("") // the default tenant's engine_rules series exists from the start
	return e
}

// Wait blocks until every instance accepted so far has finished evaluating.
func (e *Engine) Wait() { e.inFlight.Wait() }

// Close shuts the engine down gracefully: detections arriving after
// Close are dropped and every in-flight rule instance drains to
// completion. Safe to call multiple times and concurrently with
// OnDetection; concurrent callers all block until the drain finishes.
func (e *Engine) Close() {
	e.mu.Lock()
	e.closed = true
	e.mu.Unlock()
	e.inFlight.Wait()
}

// admitInstance reserves one in-flight instance slot unless the engine
// is closed; the reservation is released when the instance finishes
// evaluating. Reserving under the same lock that Close takes makes the
// closed-check/Add pair atomic, so Close's drain observes every admitted
// instance and no instance is admitted after the drain began.
func (e *Engine) admitInstance() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return false
	}
	e.stats.InstancesCreated++
	e.inFlight.Add(1)
	return true
}

func (e *Engine) logf(format string, args ...any) {
	if e.log != nil {
		e.log.Logf(format, args...)
	}
}

// Stats returns a snapshot of the engine counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// tenantLocked returns one tenant's bookkeeping, creating it and its
// engine_rules series on first use. Callers hold e.mu.
func (e *Engine) tenantLocked(tenant string) *tenantRules {
	t := e.tenants[tenant]
	if t == nil {
		t = &tenantRules{gauge: e.met.rules.With(tenant)}
		e.tenants[tenant] = t
	}
	return t
}

// countLocked adjusts a tenant's live rule count and its engine_rules
// gauge. Callers hold e.mu.
func (e *Engine) countLocked(tenant string, delta int) {
	t := e.tenantLocked(tenant)
	t.rules += delta
	t.gauge.Set(float64(t.rules))
}

// listingOrder orders rules as every listing does: the default tenant
// first, then the other tenants by wire form, each tenant's rules by id.
func listingOrder(tenantA, idA, tenantB, idB string) int {
	return cmp.Or(strings.Compare(tenantA, tenantB), strings.Compare(idA, idB))
}

// Rules returns the registered rule ids in listing order.
func (e *Engine) Rules() []string {
	infos := e.RuleInfos()
	out := make([]string, len(infos))
	for i, info := range infos {
		out[i] = info.ID
	}
	return out
}

// RuleState returns the bookkeeping for a tenant's rule id.
func (e *Engine) RuleState(tenant, id string) (*RuleState, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	rs, ok := e.rules[ruleKey{tenant, id}]
	return rs, ok
}

// RuleInfo returns a snapshot of one registered rule's bookkeeping and
// whether the rule exists, without visiting the other rules.
func (e *Engine) RuleInfo(tenant, id string) (RuleInfo, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	rs, ok := e.rules[ruleKey{tenant, id}]
	if !ok {
		return RuleInfo{}, false
	}
	return rs.infoLocked(), true
}

// Find returns the first tenant, in listing order, that holds a rule with
// this id, visiting the tenants but not their rules.
func (e *Engine) Find(id string) (tenant string, ok bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for t := range e.tenants {
		if _, held := e.rules[ruleKey{t, id}]; held && (!ok || t < tenant) {
			tenant, ok = t, true
		}
	}
	return tenant, ok
}

// form is the compiled form of the rule's i-th component in
// rule.Components() order (0 is the event), nil when it has none.
func (rs *RuleState) form(i int) any { return rs.Plan.Forms[i] }

func (rs *RuleState) infoLocked() RuleInfo {
	return RuleInfo{ID: rs.Rule.ID, Registered: rs.Registered, Firings: rs.Firings, Died: rs.Died, Tenant: rs.Tenant}
}

// RuleInfos returns a snapshot of every registered rule's bookkeeping in
// listing order.
func (e *Engine) RuleInfos() []RuleInfo {
	e.mu.Lock()
	out := make([]RuleInfo, 0, len(e.rules))
	for _, rs := range e.rules {
		out = append(out, rs.infoLocked())
	}
	e.mu.Unlock()
	slices.SortFunc(out, func(a, b RuleInfo) int { return listingOrder(a.Tenant, a.ID, b.Tenant, b.ID) })
	return out
}

// Listens reports whether a registered rule, of any tenant, listens to
// the event name: one whose plan lists it, or one that listens to every
// name.
func (e *Engine) Listens(name xmltree.Name) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.wildcards > 0 || e.listen[name] > 0
}

// Vocabulary returns the event names the registered rules listen to, in
// Clark notation and sorted, and whether a rule listens to every name.
func (e *Engine) Vocabulary() (names []string, wildcard bool) {
	e.mu.Lock()
	names = make([]string, 0, len(e.listen))
	for n := range e.listen {
		names = append(names, n.String())
	}
	wildcard = e.wildcards > 0
	e.mu.Unlock()
	slices.Sort(names)
	return names, wildcard
}

// countNamesLocked adds delta to the listener counts of a plan's names.
// Callers hold e.mu.
func (e *Engine) countNamesLocked(p *Plan, delta int) {
	names := p.Names()
	if names == nil {
		e.wildcards += delta
		return
	}
	for _, n := range names {
		if e.listen[n] += delta; e.listen[n] == 0 {
			delete(e.listen, n)
		}
	}
}

// SetRegistered back-dates a rule's registration time; crash recovery uses
// it to restore the original registration instant from the journal.
func (e *Engine) SetRegistered(tenant, id string, at time.Time) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if rs, ok := e.rules[ruleKey{tenant, id}]; ok {
		rs.Registered = at
	}
}

// Register registers a rule in the default tenant; see Add.
func (e *Engine) Register(rule *ruleml.Rule) error { return e.Add("", rule) }

// Analyze makes the rule's plan: each component's language compiles its
// expression once, and the compiled forms report the variables each
// component binds and uses and the names the event listens to (a form that
// reports nothing is scanned, ruleml.Analyze). It returns the plan and that
// analysis, in rule.Components() order. A rule that does not compile is an
// error wrapping ErrBadExpression naming the component; one that uses a
// variable before binding it (ruleml.Validate) is an error too. Analyze
// registers nothing.
func (e *Engine) Analyze(rule *ruleml.Rule) (Plan, []ruleml.VarAnalysis, error) {
	comps := rule.Components()
	p := Plan{Forms: make([]any, len(comps))}
	vars := make([]ruleml.VarAnalysis, len(comps))
	for i, c := range comps {
		compile := e.grh.Compile
		if isLocalTest(c) {
			compile = services.CompileTest
		}
		form, err := compile(c)
		if err != nil {
			return Plan{}, nil, fmt.Errorf("engine: rule %.64q: %w: component %s: %w", rule.ID, ErrBadExpression, c.ID, err)
		}
		p.Forms[i], vars[i] = form, ruleml.Analyze(c, form)
	}
	if err := ruleml.Validate(rule, vars); err != nil {
		return Plan{}, nil, err
	}
	if len(rule.Steps) > 0 {
		p.Uses = make([][]string, len(rule.Steps))
		for i := range p.Uses {
			p.Uses[i] = vars[1+i].Uses
		}
	}
	return p, vars, nil
}

// Add validates the rule and registers it in tenant (wire form, "" = the
// default tenant), submitting its event component to the appropriate
// detection service via the GRH (Fig. 5). Rules without an id are
// assigned rule-N, numbered per tenant. The rule is analysed once
// (Analyze), so a rule that does not compile is rejected (a 400 naming the
// component) instead of failing on every matching event, and its plan
// stays with it. The engine keeps its own copy of the rule (keep), not
// rule: Add only sets rule.ID when it assigns one.
func (e *Engine) Add(tenant string, rule *ruleml.Rule) error {
	plan, _, err := e.Analyze(rule)
	if err != nil {
		return err
	}
	rs := &RuleState{Rule: keep(rule, plan.Forms[0] != nil), Tenant: tenant, Plan: plan}
	e.mu.Lock()
	if rule.ID == "" {
		// Skip ids already taken — a recovered rule set may occupy
		// rule-N slots from a previous run of the sequence.
		t := e.tenantLocked(tenant)
		for {
			t.seq++
			rule.ID = fmt.Sprintf("rule-%d", t.seq)
			if _, taken := e.rules[ruleKey{tenant, rule.ID}]; !taken {
				break
			}
		}
	}
	k := ruleKey{tenant, rule.ID}
	if _, dup := e.rules[k]; dup {
		e.mu.Unlock()
		return fmt.Errorf("engine: rule %.64q %w", rule.ID, ErrDuplicateRule)
	}
	registered := time.Now()
	rs.Rule.ID, rs.Registered = rule.ID, registered
	e.rules[k] = rs
	e.stats.RulesRegistered++
	e.countLocked(tenant, 1)
	e.countNamesLocked(&rs.Plan, 1)
	e.mu.Unlock()

	e.logf("register rule %s: submitting event component %s (language %s) to GRH",
		rule.ID, rule.Event.ID, orDefault(rule.Event.Language, "atomic"))
	e.slog.Info("rule registered", obs.FieldRule, rule.ID,
		obs.FieldComponent, rule.Event.ID, "language", orDefault(rule.Event.Language, "atomic"))
	_, err = e.grh.Dispatch(protocol.RegisterEvent, grh.Component{
		Rule:     rule.ID,
		Comp:     rule.Event,
		Compiled: rs.form(0),
		Bindings: bindings.NewRelation(),
		ReplyTo:  e.replyTo,
		Tenant:   tenant,
	})
	if err != nil {
		e.mu.Lock()
		delete(e.rules, k)
		e.stats.RulesRegistered--
		e.countLocked(tenant, -1)
		e.countNamesLocked(&rs.Plan, -1)
		e.mu.Unlock()
		e.slog.Error("rule registration failed", obs.FieldRule, rule.ID, "error", err.Error())
		return fmt.Errorf("engine: registering event component of %s: %w", rule.ID, err)
	}
	if e.journal != nil {
		e.journal.RuleRegistered(tenant, rule.ID, rule.Doc, registered)
	}
	return nil
}

// keep is the engine's copy of a registered rule: the caller's rule less
// its document (Doc), so a rule's registration outlives its parsed tree.
// Each step's and action's expression is a detached clone, a root whose
// Parent is nil; the event's expression is dropped when the event compiled,
// since its detector was built from that form and unregistering it names
// only the rule and component.
func keep(rule *ruleml.Rule, eventCompiled bool) *ruleml.Rule {
	k := &ruleml.Rule{ID: rule.ID, Event: rule.Event}
	if eventCompiled {
		k.Event.Expression = nil
	} else {
		k.Event.Expression = rule.Event.Expression.Clone()
	}
	comps := make([]ruleml.Component, 0, len(rule.Steps)+len(rule.Actions))
	comps = append(append(comps, rule.Steps...), rule.Actions...)
	for i := range comps {
		comps[i].Expression = comps[i].Expression.Clone()
	}
	k.Steps, k.Actions = comps[:len(rule.Steps):len(rule.Steps)], comps[len(rule.Steps):]
	return k
}

// Unregister withdraws a tenant's rule and its event registration. An
// unknown id yields an error wrapping ErrNoRule.
func (e *Engine) Unregister(tenant, id string) error {
	k := ruleKey{tenant, id}
	e.mu.Lock()
	rs, ok := e.rules[k]
	if ok {
		delete(e.rules, k)
		e.countLocked(tenant, -1)
		e.countNamesLocked(&rs.Plan, -1)
	}
	e.mu.Unlock()
	if !ok {
		return fmt.Errorf("engine: %w %q", ErrNoRule, id)
	}
	if e.journal != nil {
		e.journal.RuleUnregistered(tenant, id)
	}
	_, err := e.grh.Dispatch(protocol.UnregisterEvent, grh.Component{
		Rule:     id,
		Comp:     rs.Rule.Event,
		Bindings: bindings.NewRelation(),
		Tenant:   tenant,
	})
	return err
}

// OnDetection is the entry point for event detection messages (Fig. 6):
// the HTTP callback handler target in distributed deployments, and the
// local sink of event services that run rule instances where they detect.
// It admits the answer's rule instances (Admit) and runs them before it
// returns.
func (e *Engine) OnDetection(a *protocol.Answer) {
	if run := e.Admit(a); run != nil {
		run()
	}
}

// Admit creates the rule instances of one detection message: one per
// answer tuple — and, when the event component binds an <eca:variable>,
// one per functional result of each tuple, per the Fig. 8 semantics. It
// counts them, gives each its trace and reserves its in-flight slot, so
// instances are admitted, and their trace ids issued, in the order Admit
// is called; detections arriving after Close are dropped. The instances'
// query, test and action steps are left to run, which evaluates them in
// admission order and may be called on any goroutine, once; nil means
// nothing was admitted. Close waits for admitted instances, so every run
// must be called.
func (e *Engine) Admit(a *protocol.Answer) (run func()) {
	e.met.detections.Inc()
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		e.logf("detection for rule %q dropped: engine closed", a.RuleID)
		return nil
	}
	rs, ok := e.rules[ruleKey{a.Tenant, a.RuleID}]
	e.mu.Unlock()
	if !ok {
		e.logf("detection for unknown rule %q dropped", a.RuleID)
		return nil
	}
	lc := lifecycle{admitted: a.AdmittedAt, published: a.PublishedAt, detected: time.Now()}
	type instance struct {
		tuple bindings.Tuple
		tr    *obs.Instance
	}
	var admitted []instance
admit:
	for _, row := range a.Rows {
		tuples := []bindings.Tuple{row.Tuple}
		if rs.Rule.Event.Variable != "" && len(row.Results) > 0 {
			// Fig. 8 functional-result semantics: every result yields
			// its own binding of the event variable, hence its own rule
			// instance — not just the first result. A detected event's
			// payload is shared by every rule that detected it, and a
			// later component may splice a bound fragment into a tree of
			// its own, so the binding gets its own copy.
			tuples = tuples[:0]
			for _, res := range row.Results {
				t := row.Tuple.Clone()
				t[rs.Rule.Event.Variable] = res.Clone()
				tuples = append(tuples, t)
			}
		}
		for _, tuple := range tuples {
			evStart := time.Now()
			if !e.admitInstance() {
				e.logf("rule %s: detection dropped: engine closed", a.RuleID)
				e.slog.Warn("detection dropped", obs.FieldRule, a.RuleID, "reason", "closed")
				break admit
			}
			e.met.instances.With("created").Inc()
			// Spans: the event, each step and action, and the lifecycle.
			tr := e.tr.Begin(a.RuleID, 2+len(rs.Rule.Steps)+len(rs.Rule.Actions))
			if rs.Tenant != "" {
				tr.SetTenant(rs.Tenant)
			}
			tr.AddSpan(obs.Span{
				Stage:     string(ruleml.EventComponent),
				Component: a.Component,
				Language:  rs.Rule.Event.Language,
				Mode:      "detection",
				TuplesOut: 1,
				Start:     evStart,
			})
			if e.log != nil {
				e.logf("rule %s: event %s detected, instance created with %s",
					a.RuleID, a.Component, tuple)
			}
			if e.slog.Enabled(slog.LevelInfo) {
				e.slog.Info("rule instance created", obs.FieldTraceID, tr.ID(),
					obs.FieldRule, a.RuleID, obs.FieldComponent, a.Component)
			}
			// The "event" step latency is the engine-side cost of turning
			// one detected tuple into an admitted rule instance; the
			// detection itself happened in the event service.
			e.met.stepSec.With(string(ruleml.EventComponent)).Observe(obs.Since(evStart))
			admitted = append(admitted, instance{tuple, tr})
		}
	}
	if len(admitted) == 0 {
		return nil
	}
	return func() {
		for _, in := range admitted {
			e.runInstance(rs, bindings.NewRelation(in.tuple), in.tr, lc)
			e.inFlight.Done()
		}
	}
}

// runInstance drives one rule instance through its steps and actions.
func (e *Engine) runInstance(rs *RuleState, rel *bindings.Relation, tr *obs.Instance, lc lifecycle) {
	rule := rs.Rule
	start := time.Now()
	for i, step := range rule.Steps {
		sp := obs.Span{
			Stage:     string(step.Kind),
			Component: step.ID,
			Language:  step.Language,
			Mode:      "grh",
			TuplesIn:  rel.Size(),
			Start:     time.Now(),
		}
		if isLocalTest(step) {
			sp.Mode = "local"
		}
		next, err := e.evalStep(rs, i, rel, tr, &sp)
		sp.Duration = time.Since(sp.Start)
		e.met.stepSec.With(string(step.Kind)).Observe(sp.Duration.Seconds())
		if err != nil {
			sp.Err = err.Error()
			tr.AddSpan(sp)
			e.logf("rule %s: %s failed: %v — instance aborted", rule.ID, step.ID, err)
			e.instanceLog(tr, rule.ID).Error("step failed", obs.FieldComponent, step.ID, "error", err.Error())
			e.died(rs, tr, start)
			return
		}
		rel = next
		sp.TuplesOut = rel.Size()
		tr.AddSpan(sp)
		if e.log != nil {
			e.logf("rule %s: after %s: %d tuple(s)", rule.ID, step.ID, rel.Size())
		}
		if e.slog.Enabled(slog.LevelDebug) {
			e.instanceLog(tr, rule.ID).Debug("step evaluated", obs.FieldComponent, step.ID,
				"kind", string(step.Kind), "tuples", rel.Size())
		}
		if rel.Empty() {
			if e.log != nil {
				e.logf("rule %s: relation empty after %s — instance eliminated", rule.ID, step.ID)
			}
			e.died(rs, tr, start)
			return
		}
	}
	stepsDone := time.Now()
	for i, action := range rule.Actions {
		sp := obs.Span{
			Stage:     string(ruleml.ActionComponent),
			Component: action.ID,
			Language:  action.Language,
			Mode:      "grh",
			TuplesIn:  rel.Size(),
			Start:     time.Now(),
		}
		answer, err := e.grh.Dispatch(protocol.Action, grh.Component{
			Rule:     rule.ID,
			Comp:     action,
			Compiled: rs.form(1 + len(rule.Steps) + i),
			Bindings: rel,
			Trace:    tr,
			Tenant:   rs.Tenant,
		})
		sp.Duration = time.Since(sp.Start)
		e.met.stepSec.With(string(ruleml.ActionComponent)).Observe(sp.Duration.Seconds())
		e.met.actionRuns.Inc()
		e.mu.Lock()
		e.stats.ActionRuns++
		e.mu.Unlock()
		if err != nil {
			sp.Err = err.Error()
			tr.AddSpan(sp)
			e.logf("rule %s: action %s failed: %v", rule.ID, action.ID, err)
			e.instanceLog(tr, rule.ID).Error("action failed", obs.FieldComponent, action.ID, "error", err.Error())
			e.died(rs, tr, start)
			return
		}
		sp.TuplesOut = rel.Size()
		sp.Children = serverSpans(answer)
		tr.AddSpan(sp)
		if e.log != nil {
			e.logf("rule %s: action %s executed for %d tuple(s)", rule.ID, action.ID, rel.Size())
		}
		if e.slog.Enabled(slog.LevelDebug) {
			e.instanceLog(tr, rule.ID).Debug("action executed", obs.FieldComponent, action.ID, "tuples", rel.Size())
		}
	}
	ack := time.Now()
	e.mu.Lock()
	rs.Firings++
	e.stats.InstancesCompleted++
	e.mu.Unlock()
	e.met.instances.With("completed").Inc()
	e.met.instanceSec.Observe(ack.Sub(start).Seconds())
	e.observeLifecycle(rs, tr, lc, stepsDone, ack)
	tr.Finish("completed")
	if e.slog.Enabled(slog.LevelInfo) {
		e.instanceLog(tr, rule.ID).Info("rule instance completed", "seconds", ack.Sub(start).Seconds())
	}
}

// instanceLog returns the logger of one rule instance, whose records carry
// its trace id and rule.
func (e *Engine) instanceLog(tr *obs.Instance, rule string) *obs.Logger {
	return e.slog.With(obs.FieldTraceID, tr.ID(), obs.FieldRule, rule)
}

// observeLifecycle records the admit→action stage histograms of a
// completed instance and attaches a lifecycle span (one child per
// stage) to its trace, making the trace id the exemplar that explains
// the histogram's tail. The four stages are contiguous — admit
// (admission→publish), detect (publish→engine receipt), dispatch
// (receipt→last step) and action (steps→ack) — so their sums reconcile
// with event_e2e_seconds.
// Negative spans can only arise from wall-clock skew on cross-node
// detections and are clamped to zero.
func (e *Engine) observeLifecycle(rs *RuleState, tr *obs.Instance, lc lifecycle, stepsDone, ack time.Time) {
	if !lc.observable() {
		return
	}
	stages := [...]struct {
		name       string
		start, end time.Time
	}{
		{"admit", lc.admitted, lc.published},
		{"detect", lc.published, lc.detected},
		{"dispatch", lc.detected, stepsDone},
		{"action", stepsDone, ack},
	}
	id := tr.ID()
	span := obs.Span{
		Stage:    "lifecycle",
		Mode:     "engine",
		Start:    lc.admitted,
		Duration: maxDuration(0, ack.Sub(lc.admitted)),
		Children: make([]obs.Span, 0, len(stages)),
	}
	for _, s := range stages {
		d := maxDuration(0, s.end.Sub(s.start))
		e.met.lifecycle.With(s.name, rs.Tenant).ObserveExemplar(d.Seconds(), id)
		span.Children = append(span.Children, obs.Span{Stage: s.name, Mode: "engine", Start: s.start, Duration: d})
	}
	e.met.e2e.With(rs.Rule.ID, rs.Tenant).ObserveExemplar(span.Duration.Seconds(), id)
	tr.AddSpan(span)
}

func maxDuration(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}

// serverSpans converts the service-side trace piggybacked on an answer
// (the log:trace element) into child spans of the client-side dispatch
// span. Answers from services that do not emit log:trace yield nil.
func serverSpans(a *protocol.Answer) []obs.Span {
	if a == nil || len(a.Trace) == 0 {
		return nil
	}
	out := make([]obs.Span, 0, len(a.Trace))
	for _, s := range a.Trace {
		out = append(out, obs.Span{
			Stage:     s.Phase,
			Mode:      "server",
			TuplesIn:  s.TuplesIn,
			TuplesOut: s.TuplesOut,
			Start:     s.Start,
			Duration:  s.Duration,
		})
	}
	return out
}

func (e *Engine) died(rs *RuleState, tr *obs.Instance, start time.Time) {
	e.mu.Lock()
	rs.Died++
	e.stats.InstancesDied++
	e.mu.Unlock()
	e.met.instances.With("died").Inc()
	e.met.instanceSec.Observe(time.Since(start).Seconds())
	tr.Finish("died")
	if e.slog.Enabled(slog.LevelInfo) {
		e.instanceLog(tr, rs.Rule.ID).Info("rule instance died", "seconds", time.Since(start).Seconds())
	}
}

// evalStep evaluates one query or test component against the instance
// relation. tr rides along on the dispatch so the GRH can propagate the
// instance's trace context to remote services; when the service answers
// with its own phase spans, they are stitched into sp as children.
func (e *Engine) evalStep(rs *RuleState, i int, rel *bindings.Relation, tr *obs.Instance, sp *obs.Span) (*bindings.Relation, error) {
	step := rs.Rule.Steps[i]
	if isLocalTest(step) {
		// Section 4.5: the test component is in general evaluated locally.
		return services.EvalTest(rs.form(1+i).(*xpath.Expr), rel)
	}
	// Only the relevant bindings travel to the service (Section 4.4): the
	// variables the component's expression references.
	input := rel.Project(rs.Plan.Uses[i]...)
	kind := protocol.Query
	if step.Kind == ruleml.TestComponent {
		kind = protocol.Test
	}
	answer, err := e.grh.Dispatch(kind, grh.Component{
		Rule:     rs.Rule.ID,
		Comp:     step,
		Compiled: rs.form(1 + i),
		Bindings: input,
		Trace:    tr,
		Tenant:   rs.Tenant,
	})
	if err != nil {
		return nil, err
	}
	sp.Children = serverSpans(answer)
	if step.Variable != "" {
		// <eca:variable>: each functional result yields a separate
		// binding of the variable, Cartesian with the matching input
		// tuples (Fig. 8).
		return extendWithResults(rel, input, answer, step.Variable), nil
	}
	// Plain component: natural join with the answer tuples (Fig. 11).
	return rel.Join(answer.Relation()), nil
}

// isLocalTest reports whether the engine evaluates a component itself: an
// opaque test in the test language, addressed to no service.
func isLocalTest(c ruleml.Component) bool {
	if c.Kind != ruleml.TestComponent || !c.Opaque || c.Service != "" {
		return false
	}
	return c.Language == "" || c.Language == services.TestNS
}

// extendWithResults implements the eca:variable semantics: for every tuple
// of the full relation, the functional results produced for its projection
// become separate bindings of the variable.
//
// Answer rows are matched to input tuples by Tuple.Equal over the projected
// variables; the projKey index only narrows the search. Key equality alone
// is not enough — Value.Key collides by design (XML fragments key by text
// content alone), so two different input tuples can share a key, and key-only
// matching would hand one tuple the other's results. Rows echoing fewer
// variables than they were sent (an empty or partial echo) fall back to a
// compatibility scan, attaching their results to every input tuple they
// agree with.
func extendWithResults(full, projected *bindings.Relation, a *protocol.Answer, variable string) *bindings.Relation {
	vars := projected.Vars()
	type echo struct {
		tuple   bindings.Tuple // row tuple projected onto vars
		results []bindings.Value
	}
	buckets := map[string][]*echo{}
	var echoes []*echo
	for _, row := range a.Rows {
		rt := projectTuple(row.Tuple, vars)
		k := projKey(rt, vars)
		var e *echo
		for _, b := range buckets[k] {
			if b.tuple.Equal(rt) {
				e = b
				break
			}
		}
		if e == nil {
			e = &echo{tuple: rt}
			buckets[k] = append(buckets[k], e)
			echoes = append(echoes, e)
		}
		e.results = append(e.results, row.Results...)
	}
	return full.Extend(variable, func(t bindings.Tuple) []bindings.Value {
		proj := projectTuple(t, vars)
		for _, e := range buckets[projKey(proj, vars)] {
			if e.tuple.Equal(proj) {
				return e.results
			}
		}
		var out []bindings.Value
		for _, e := range echoes {
			if len(e.tuple) < len(proj) && e.tuple.Compatible(proj) {
				out = append(out, e.results...)
			}
		}
		return out
	})
}

// projectTuple restricts a tuple to the given variables (absent ones are
// simply missing, as in Relation.Project).
func projectTuple(t bindings.Tuple, vars []string) bindings.Tuple {
	p := make(bindings.Tuple, len(vars))
	for _, v := range vars {
		if val, ok := t[v]; ok {
			p[v] = val
		}
	}
	return p
}

// projKey canonicalizes a tuple's projection onto vars. It uses the same
// \x00/\x01 separator scheme as Tuple.key in internal/bindings, so a
// value containing spaces or brackets can never collide with a
// differently-split tuple (e.g. {A="x B=y"} vs {A="x", B="y"}).
func projKey(t bindings.Tuple, vars []string) string {
	parts := make([]string, 0, len(vars))
	for _, v := range vars {
		if val, ok := t[v]; ok {
			parts = append(parts, v+"\x00"+val.Key())
		}
	}
	return strings.Join(parts, "\x01")
}

func orDefault(s, def string) string {
	if s == "" {
		return def
	}
	return s
}
