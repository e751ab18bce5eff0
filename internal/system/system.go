// Package system wires the complete service-oriented architecture of
// Fig. 3: the ECA engine, the Generic Request Handler, and the component
// language services — either fully in-process (every service a local
// grh.Service) or distributed, with each service behind a real HTTP
// endpoint and the engine receiving detection callbacks over HTTP.
package system

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bindings"
	"repro/internal/cluster"
	"repro/internal/datalog"
	"repro/internal/engine"
	"repro/internal/events"
	"repro/internal/grh"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/ruleml"
	"repro/internal/services"
	"repro/internal/snoop"
	"repro/internal/store"
	"repro/internal/tenant"
	"repro/internal/xmltree"
)

// Notification is one message "sent" by the domain action executor.
type Notification struct {
	Message *xmltree.Node
	Tuple   bindings.Tuple
}

// notifyWindow is how many of the most recent messages a Notifier keeps
// for Sent. An action sends its message; the daemon does not archive it, so
// a Notifier's memory stays constant however many actions run.
const notifyWindow = 256

// Notifier is the message sink of the domain action executor (the
// customer-facing side of the car-rental example). It counts every message
// exactly (Count), keeps only the most recent notifyWindow of them (Sent)
// and hands each one to the OnSend hook. Safe for concurrent use.
type Notifier struct {
	mu    sync.Mutex
	sent  []Notification // newest last; at most 2*notifyWindow
	count int
	hook  func(Notification)
}

// Send records a message.
func (n *Notifier) Send(msg *xmltree.Node, t bindings.Tuple) {
	n.mu.Lock()
	if len(n.sent) == 2*notifyWindow {
		// Drop the older half in place: one copy per notifyWindow sends.
		n.sent = n.sent[:copy(n.sent, n.sent[notifyWindow:])]
	}
	n.sent = append(n.sent, Notification{msg, t})
	n.count++
	h := n.hook
	n.mu.Unlock()
	if h != nil {
		h(Notification{msg, t})
	}
}

// Sent returns a snapshot of the most recent messages, at most
// notifyWindow of them, in send order.
func (n *Notifier) Sent() []Notification {
	n.mu.Lock()
	defer n.mu.Unlock()
	recent := n.sent[max(0, len(n.sent)-notifyWindow):]
	out := make([]Notification, len(recent))
	copy(out, recent)
	return out
}

// Count returns the number of messages sent since construction or the last
// Reset, including those Sent no longer holds.
func (n *Notifier) Count() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.count
}

// Reset clears the kept messages and the count.
func (n *Notifier) Reset() {
	n.mu.Lock()
	n.sent = nil
	n.count = 0
	n.mu.Unlock()
}

// OnSend installs a hook invoked for every message.
func (n *Notifier) OnSend(h func(Notification)) {
	n.mu.Lock()
	n.hook = h
	n.mu.Unlock()
}

// Config parameterizes a System.
type Config struct {
	// Datalog is the rulebase for the LP-style query service; nil for an
	// empty one.
	Datalog *datalog.Program
	// Namespaces are offered to query services for prefixed name tests.
	Namespaces map[string]string
	// Logger receives engine traces.
	Logger engine.Logger
	// Trace receives GRH traffic.
	Trace grh.TraceFunc
	// Obs is the observability hub instrumenting the engine, GRH and
	// services; nil runs the system uninstrumented.
	Obs *obs.Hub
	// Log is the structured logger shared by the engine, GRH and service
	// handlers; every record it emits for a live rule instance carries the
	// instance's trace_id. nil disables structured logging.
	Log *obs.Logger
	// PProf mounts net/http/pprof profiling handlers under /debug/pprof/
	// on the Mux.
	PProf bool
	// HTTPTimeout bounds every outbound service request made by the GRH
	// and the deliverer; grh.DefaultTimeout when zero.
	HTTPTimeout time.Duration
	// Retry enables GRH retry with exponential backoff for idempotent
	// dispatches (queries and tests; never actions). The zero value
	// disables retry; grh.DefaultRetryPolicy is a sane starting point.
	Retry grh.RetryPolicy
	// Breaker enables the GRH's per-endpoint circuit breaker. The zero
	// value disables it; grh.DefaultBreakerPolicy is a sane starting
	// point.
	Breaker grh.BreakerPolicy
	// Store is the durability subsystem (write-ahead rule/event journal,
	// snapshots, crash recovery — see internal/store and
	// docs/DURABILITY.md). nil keeps the engine purely in-memory, the
	// historical behaviour. Call System.Recover after NewLocal to replay
	// the recovered state into the engine.
	Store *store.Store
	// Cluster joins this system to a multi-node deployment (rule sharding,
	// event forwarding, journal replication — see internal/cluster and
	// docs/CLUSTERING.md). nil runs single-node, behaviourally identical
	// to a build without the cluster layer. Call System.StartCluster after
	// Recover to launch probing and replication.
	Cluster *cluster.Options
	// MaxPendingEvents caps how many POST /events requests may be in
	// flight at once; excess requests are answered 429 with a Retry-After
	// header and the documented overload body. Zero means no admission
	// limit, the historical behaviour.
	MaxPendingEvents int
	// DefaultTenant names the tenant every tenant-less request resolves
	// to; tenant.Default ("public") when empty. The default tenant's
	// internal wire form is the empty string, which keeps journals,
	// protocol documents and metric labels byte-identical with
	// deployments that never name a tenant. See docs/MULTITENANCY.md.
	DefaultTenant string
	// TenantQuotas declares per-tenant quotas up front, keyed by tenant
	// id; the key "*" sets the quotas every undeclared tenant gets on
	// first use. A zero quota field means unlimited.
	TenantQuotas map[string]tenant.Quotas
}

// System is one wired deployment of the architecture.
type System struct {
	Stream   *events.Stream
	Store    *services.DocStore
	GRH      *grh.GRH
	Engine   *engine.Engine
	Notifier *Notifier
	Obs      *obs.Hub
	Log      *obs.Logger
	Durable  *store.Store     // nil when the deployment is in-memory only
	Cluster  *cluster.Node    // nil when the deployment is single-node
	Tenants  *tenant.Registry // tenant set; always non-nil after NewLocal

	pprof      bool
	eventSlots chan struct{} // admission semaphore for POST /events; nil = unlimited
	maxPending int           // cap of eventSlots; 0 = unlimited

	metAdmitted  *obs.CounterVec // events_admitted_total{tenant}
	metShed      *obs.CounterVec // events_shed_total{tenant,reason}
	metPending   *obs.Gauge      // events_pending
	metBatchSize *obs.Histogram  // events_batch_size

	// Matcher and Snoop are the atomic and SNOOP detection hosts, one each
	// for every tenant: they index detectors by tenant and deliver each
	// detection to the engine, which routes it by (tenant, rule id).
	Matcher *services.DetectorHost
	Snoop   *services.DetectorHost
	XQuery  *services.XQueryService
	Datalog *services.DatalogService
	Actions *services.ActionExecutor

	started  time.Time
	starting atomic.Bool // see SetStarting
}

// NewLocal wires every service in-process, the deployment used by the
// quickstart example and most tests.
func NewLocal(cfg Config) (*System, error) {
	s := &System{
		Stream: events.NewStream(),
		Store:  services.NewDocStore(),
		GRH: grh.New(grh.WithObs(cfg.Obs), grh.WithTimeout(cfg.HTTPTimeout),
			grh.WithRetry(cfg.Retry), grh.WithBreaker(cfg.Breaker),
			grh.WithLog(cfg.Log)),
		Notifier: &Notifier{},
		Obs:      cfg.Obs,
		Log:      cfg.Log,
		Durable:  cfg.Store,
		pprof:    cfg.PProf,
		started:  time.Now(),
	}
	if cfg.Trace != nil {
		s.GRH.SetTrace(cfg.Trace)
	}
	tenants, err := tenant.NewRegistry(cfg.DefaultTenant)
	if err != nil {
		return nil, fmt.Errorf("system: %w", err)
	}
	quotaIDs := make([]string, 0, len(cfg.TenantQuotas))
	for id := range cfg.TenantQuotas {
		quotaIDs = append(quotaIDs, id)
	}
	sort.Strings(quotaIDs)
	for _, id := range quotaIDs {
		if err := tenants.Declare(id, cfg.TenantQuotas[id]); err != nil {
			return nil, fmt.Errorf("system: tenant quotas: %w", err)
		}
	}
	s.Tenants = tenants
	opts := []engine.Option{engine.WithObs(cfg.Obs), engine.WithLog(cfg.Log)}
	if cfg.Logger != nil {
		opts = append(opts, engine.WithLogger(cfg.Logger))
	}
	if cfg.Store != nil {
		opts = append(opts, engine.WithJournal(cfg.Store))
	}
	s.Engine = engine.New(s.GRH, opts...)
	// Both detection hosts admit into System.Engine as it is when the
	// detection arrives. The engine admits the rule instances in detection
	// order; they run where the hosts' Deliverer puts the returned run.
	admit := func(a *protocol.Answer) func() { return s.Engine.Admit(a) }
	deliver := &services.Deliverer{Admit: admit, Obs: cfg.Obs}
	s.Matcher = services.NewEventMatcher(s.Stream, deliver)
	s.Snoop = services.NewSnoopService(s.Stream, deliver)
	s.XQuery = services.NewXQueryService(s.Store, cfg.Namespaces)
	s.Actions = services.NewActionExecutor(s.Store, s.Stream, s.Notifier.Send)

	prog := cfg.Datalog
	if prog == nil {
		prog = &datalog.Program{}
	}
	dl, err := services.NewDatalogService(prog)
	if err != nil {
		return nil, fmt.Errorf("system: datalog rulebase: %w", err)
	}
	s.Datalog = dl

	for _, l := range s.languages() {
		if err := s.GRH.Register(l.descriptor("")); err != nil {
			return nil, err
		}
	}
	s.GRH.SetDefault(ruleml.EventComponent, services.MatcherNS)
	s.GRH.SetDefault(ruleml.QueryComponent, services.XQueryNS)
	s.GRH.SetDefault(ruleml.TestComponent, services.TestNS)
	s.GRH.SetDefault(ruleml.ActionComponent, services.ActionNS)
	if cfg.MaxPendingEvents > 0 {
		s.eventSlots = make(chan struct{}, cfg.MaxPendingEvents)
		s.maxPending = cfg.MaxPendingEvents
	}
	reg := cfg.Obs.Metrics()
	s.metAdmitted = reg.CounterVec("events_admitted_total",
		"Events accepted by POST /events and published on the local stream, by tenant (empty = default tenant).", "tenant")
	s.metShed = reg.CounterVec("events_shed_total",
		"POST /events requests shed with 429, by tenant and reason (overload = node admission limit, quota = tenant quota).",
		"tenant", "reason")
	s.metPending = reg.Gauge("events_pending", "POST /events requests currently holding an admission slot.")
	s.metBatchSize = reg.Histogram("events_batch_size",
		"Events admitted per POST /events request (1 for the single-event contract; the batch size for eca:events envelopes and NDJSON bodies).",
		[]float64{1, 2, 4, 8, 16, 32, 64, 128, 256})
	if cfg.Cluster != nil {
		node, err := cluster.New(*cfg.Cluster, cluster.Hooks{
			Local:             s.Engine,
			RegisterRecovered: s.registerRecovered,
			PublishRecovered:  s.publishRecovered,
		}, cfg.Store)
		if err != nil {
			return nil, err
		}
		s.Cluster = node
	}
	return s, nil
}

// SetStarting marks start-up as in progress (true) or finished (false).
// While it is in progress /healthz answers ready:false with status
// "starting", so nothing routes traffic to a daemon that is still
// recovering its journal, registering start-up rules or joining its
// cluster. A System built by NewLocal is not starting: in-process
// deployments are ready from construction.
func (s *System) SetStarting(on bool) { s.starting.Store(on) }

// StartCluster launches the cluster node's health prober and journal
// shipper. Call it once, after Recover has replayed the local journal (the
// shipper's opening base sync must mirror the recovered state); a no-op on
// single-node deployments.
func (s *System) StartCluster() {
	if s.Cluster != nil {
		s.Cluster.Start()
	}
}

// Mux builds the HTTP surface of a distributed deployment: every component
// service mounted under its conventional path, plus the engine's detection
// callback and rule/event management endpoints used by ecactl. The XML
// bodies of the POST endpoints are read up to protocol.MaxBodyBytes and
// answered 413 beyond it.
//
//	POST /services/matcher    eca:request (register/unregister)
//	POST /services/snoop      eca:request
//	POST /services/xquery     eca:request (query)
//	POST /services/datalog    eca:request (query)
//	POST /services/test       eca:request (test)
//	POST /services/action     eca:request (action)
//	GET  /opaque/store?query= raw XPath  (framework-unaware, Fig. 9)
//	GET  /opaque/xquery?query= raw XQuery (framework-unaware, Fig. 10)
//	POST /engine/detect       log:answers (detection callback)
//	POST /engine/rules        eca:rule document → registers the rule
//	GET  /engine/rules        rule bookkeeping as JSON (?format=ids for the plain id list)
//	GET  /engine/rules/{id}   one rule's bookkeeping as JSON
//	DELETE /engine/rules/{id} unregisters the rule
//	POST /events              event payload → journaled (when durable) and published;
//	                          an <eca:events> envelope or an NDJSON body
//	                          (Content-Type application/x-ndjson, one JSON
//	                          string of XML per line) admits a whole batch
//	                          under one journal fsync and one sequencing step;
//	                          routed/forwarded to matching peers when clustered;
//	                          429 + Retry-After + Overload body past the admission limit
//	GET  /cluster/status      this node's cluster view as JSON (when clustered)
//	POST /cluster/journal     journal replication ingest from a peer (when clustered)
//	GET  /cluster/metrics     fleet-wide metric federation: every live node's
//	                          /metrics merged under a node label (when clustered)
//	GET  /engine/stats        plain-text counters
//	GET  /healthz             liveness + readiness + rule/service counts as JSON
//	                          (not ready while starting or as admission
//	                          pressure nears -max-pending-events; incl.
//	                          store/cluster sections)
//	GET  /metrics             Prometheus text exposition (when Obs is set)
//	GET  /debug/traces        rule-instance span traces as JSON (when Obs is set)
//	GET  /debug/pprof/        runtime profiling (when Config.PProf is set)
func (s *System) Mux(opaqueDoc *xmltree.Node, namespaces map[string]string) *http.ServeMux {
	mux := http.NewServeMux()
	for _, l := range s.languages() {
		mux.Handle(l.path, services.NewHandler(l.svc, s.Obs, s.Log))
	}
	if opaqueDoc != nil {
		mux.Handle("/opaque/store", services.NewOpaqueXMLStore(opaqueDoc, namespaces).SetObs(s.Obs))
	}
	mux.Handle("/opaque/xquery", services.NewOpaqueXQueryNode(s.Store, namespaces).SetObs(s.Obs))
	mux.HandleFunc("/engine/detect", func(w http.ResponseWriter, r *http.Request) {
		doc, err := protocol.ReadBody(w, r, xmltree.Parse)
		if err != nil {
			return
		}
		a, err := protocol.DecodeAnswers(doc)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if _, _, err := s.tenantFor(a.Tenant); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		s.Engine.OnDetection(a)
		w.WriteHeader(http.StatusOK)
	})
	mux.HandleFunc("/engine/rules", func(w http.ResponseWriter, r *http.Request) {
		switch r.Method {
		case http.MethodGet:
			wire, filtered, ok := s.listTenant(w, r)
			if !ok {
				return
			}
			infos := s.ruleInfos()
			if filtered {
				kept := infos[:0]
				for _, info := range infos {
					if info.Tenant == wire {
						kept = append(kept, info)
					}
				}
				infos = kept
			}
			if r.URL.Query().Get("format") == "ids" {
				// Plain-text id list, the historical ecactl contract.
				for _, info := range infos {
					fmt.Fprintln(w, info.ID)
				}
				return
			}
			writeJSON(w, struct {
				Rules []engine.RuleInfo `json:"rules"`
			}{infos})
		case http.MethodPost:
			ten, wire, ok := s.tenantFromRequest(w, r)
			if !ok {
				return
			}
			doc, err := protocol.ReadBody(w, r, xmltree.Parse)
			if err != nil {
				return
			}
			rule, err := ruleml.Parse(doc)
			if err != nil {
				http.Error(w, err.Error(), http.StatusUnprocessableEntity)
				return
			}
			// On a clustered deployment a first-hand registration (no origin
			// header) goes to the rule id's owner on the hash ring; ids are
			// minted before hashing so placement is decided here.
			if s.Cluster != nil && r.Header.Get(cluster.OriginHeader) == "" {
				if rule.ID == "" {
					rule.ID = s.Cluster.AssignID(doc)
					if root := doc.Root(); root != nil {
						root.SetAttr("", "id", rule.ID)
					}
				}
				if owner := s.Cluster.Owner(rule.ID); owner != s.Cluster.ID() {
					// The owner registers the rule; this node analyses it
					// once too, to reject it here as the owner would and
					// to learn the names it listens to.
					plan, _, err := s.Engine.Analyze(rule)
					if err != nil {
						http.Error(w, err.Error(), registerStatus(err))
						return
					}
					status, body, err := s.Cluster.ForwardRule(wire, rule, plan.Names(), owner)
					switch {
					case err == nil:
						w.WriteHeader(status)
						fmt.Fprint(w, body)
						return
					case !errors.Is(err, cluster.ErrPeerDown):
						http.Error(w, err.Error(), http.StatusBadGateway)
						return
					}
					// Owner declared dead: register locally so the cluster
					// stays writable during failover.
				}
			}
			// The max-rules quota is claimed before registration and rolled
			// back if the engine rejects the rule, so a rejected document
			// never consumes quota.
			if err := ten.AcquireRule(); err != nil {
				writeQuotaExceeded(w, err)
				return
			}
			if err := s.Engine.Add(wire, rule); err != nil {
				ten.ReleaseRule()
				http.Error(w, err.Error(), registerStatus(err))
				return
			}
			fmt.Fprintln(w, rule.ID)
		default:
			http.Error(w, "POST an eca:rule document, GET the rule list, or DELETE /engine/rules/{id}", http.StatusMethodNotAllowed)
		}
	})
	mux.HandleFunc("/engine/rules/", func(w http.ResponseWriter, r *http.Request) {
		id := strings.TrimPrefix(r.URL.Path, "/engine/rules/")
		if id == "" {
			http.Error(w, "missing rule id", http.StatusNotFound)
			return
		}
		switch r.Method {
		case http.MethodGet:
			wire, ok := s.ruleTenant(w, r, id)
			if !ok {
				return
			}
			info, ok := s.Engine.RuleInfo(wire, id)
			if !ok {
				http.Error(w, fmt.Sprintf("no rule %q", id), http.StatusNotFound)
				return
			}
			if s.Cluster != nil {
				info.Owner = s.Cluster.ID()
			}
			writeJSON(w, info)
		case http.MethodDelete:
			wire, ok := s.ruleTenant(w, r, id)
			if !ok {
				return
			}
			err := s.Engine.Unregister(wire, id)
			if errors.Is(err, engine.ErrNoRule) {
				http.Error(w, fmt.Sprintf("no rule %q", id), http.StatusNotFound)
				return
			}
			// The engine removed the rule, even when withdrawing its event
			// registration failed, so its quota slot is free either way.
			if t, ok := s.Tenants.Lookup(wire); ok {
				t.ReleaseRule()
			}
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			fmt.Fprintln(w, id)
		default:
			http.Error(w, "GET or DELETE a rule id", http.StatusMethodNotAllowed)
		}
	})
	mux.HandleFunc("/events", s.handleEvents)
	mux.HandleFunc("/engine/stats", func(w http.ResponseWriter, r *http.Request) {
		st := s.Engine.Stats()
		fmt.Fprintf(w, "rules %d\ninstances_created %d\ninstances_completed %d\ninstances_died %d\naction_runs %d\nnotifications %d\n",
			st.RulesRegistered, st.InstancesCreated, st.InstancesCompleted, st.InstancesDied, st.ActionRuns, s.Notifier.Count())
	})
	mux.HandleFunc("/healthz", s.healthz)
	if s.Cluster != nil {
		mux.HandleFunc("/cluster/status", s.Cluster.StatusHandler)
		mux.HandleFunc("/cluster/journal", s.Cluster.JournalHandler)
		mux.HandleFunc("/cluster/metrics", s.Cluster.MetricsHandler)
	}
	if s.Obs != nil {
		mux.Handle("/metrics", s.Obs.MetricsHandler())
		mux.Handle("/debug/traces", s.tenantTraces(s.Obs.TracesHandler()))
	}
	if s.pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// parseEventDocs extracts the admitted event documents from one POST
// /events body. Three shapes are accepted:
//
//   - a single event document — the historical contract;
//   - an <eca:events> batch envelope: every child element is one event;
//   - with Content-Type application/x-ndjson, newline-delimited JSON
//     strings, each holding one XML event document (a batch wire format
//     that needs no XML envelope assembly on the client).
//
// For an NDJSON batch it also returns each document's XML text as
// received (see parseNDJSON); for the XML shapes texts is nil.
func parseEventDocs(contentType string, body io.Reader) (docs []*xmltree.Node, texts []string, err error) {
	if strings.HasPrefix(contentType, "application/x-ndjson") {
		return parseNDJSON(body)
	}
	doc, err := xmltree.Parse(body)
	if err != nil {
		return nil, nil, err
	}
	root := doc.Root()
	if root == nil || root.Name.Space != protocol.ECANS || root.Name.Local != "events" {
		return []*xmltree.Node{doc}, nil, nil
	}
	kids := root.ChildElements()
	if len(kids) == 0 {
		return nil, nil, errors.New("eca:events envelope holds no events")
	}
	docs = make([]*xmltree.Node, 0, len(kids))
	for _, k := range kids {
		// Each event gets its own document so journaling and recovery
		// replay see the same per-event shape as single admissions; the
		// serializer re-synthesizes any xmlns declarations inherited from
		// the envelope.
		d := xmltree.NewDocument()
		d.Append(k.Clone())
		docs = append(docs, d)
	}
	return docs, nil, nil
}

// handleEvents is POST /events: admit one event or a whole batch. A batch
// is journaled under a single store lock acquisition and fsync, sequenced
// atomically (consecutive Seq) and published through the stream's ordered
// dispatch, so its per-event overhead is amortized down to parsing.
func (s *System) handleEvents(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST an event document", http.StatusMethodNotAllowed)
		return
	}
	// The admission timestamp anchors the admit→action lifecycle
	// histograms; it is taken before parsing and journaling so the
	// admit stage covers both. One batch = one admission slot: the cap
	// bounds concurrent requests (and thus journal/dispatch pressure),
	// not event count.
	admittedAt := time.Now()
	// The tenant is resolved before the admission slot: a request naming
	// an invalid tenant is a client error even under overload, and the
	// shed counter needs the tenant label either way.
	ten, wire, ok := s.tenantFromRequest(w, r)
	if !ok {
		return
	}
	if s.eventSlots != nil {
		select {
		case s.eventSlots <- struct{}{}:
			s.metPending.Set(float64(len(s.eventSlots)))
			defer func() {
				<-s.eventSlots
				s.metPending.Set(float64(len(s.eventSlots)))
			}()
		default:
			s.metShed.With(wire, "overload").Inc()
			writeOverloaded(w)
			return
		}
	}
	var texts []string
	docs, err := protocol.ReadBody(w, r, func(body io.Reader) (docs []*xmltree.Node, err error) {
		docs, texts, err = parseEventDocs(r.Header.Get("Content-Type"), body)
		return docs, err
	})
	if err != nil {
		return
	}
	// Clustered deployments route each event to the replicas whose rules
	// can match it; a request a peer already forwarded (origin header
	// set) is always handled locally, which keeps forwarding one-hop.
	// Forwarded events are not charged against local quotas — the
	// receiving node admits (and meters) them under its own view of the
	// tenant.
	var forwarded []string
	if s.Cluster != nil && r.Header.Get(cluster.OriginHeader) == "" {
		local := docs[:0]
		var localTexts []string
		for i, doc := range docs {
			res := s.Cluster.RouteEvent(wire, doc)
			// Publish locally when local rules match — or when no peer
			// accepted the event, so it is never silently dropped.
			if !res.Local && len(res.Forwarded) > 0 {
				forwarded = append(forwarded, res.Forwarded...)
				continue
			}
			local = append(local, doc)
			if texts != nil {
				localTexts = append(localTexts, texts[i])
			}
		}
		docs, texts = local, localTexts
		if len(docs) == 0 {
			w.WriteHeader(http.StatusAccepted)
			fmt.Fprintf(w, "forwarded to %s\n", strings.Join(forwarded, " "))
			return
		}
	}
	// Tenant quotas gate locally admitted events: the pending-events cap
	// counts events in flight between here and the end of dispatch, and
	// the rate bucket charges the batch as a unit. Both reject with the
	// quota 429 body, which cluster forwarders and clients can tell from
	// node overload.
	if err := ten.AcquirePending(len(docs)); err != nil {
		s.metShed.With(wire, "quota").Inc()
		writeQuotaExceeded(w, err)
		return
	}
	defer ten.ReleasePending(len(docs))
	if err := ten.AdmitEvents(len(docs)); err != nil {
		s.metShed.With(wire, "quota").Inc()
		writeQuotaExceeded(w, err)
		return
	}
	// Journal the accepted events before dispatch, acknowledge after: a
	// crash in between leaves orphan records that recovery re-enqueues on
	// the next boot. The whole batch costs one lock acquisition, one write
	// and one fsync. NDJSON events are journaled as received; the XML
	// shapes are serialized, which gives envelope children the namespace
	// declarations they inherit.
	var journalIDs []uint64
	if texts != nil {
		journalIDs, err = s.Durable.AppendEventTexts(wire, texts)
	} else {
		journalIDs, err = s.Durable.AppendEventBatchTenant(wire, docs)
	}
	if err != nil {
		http.Error(w, "event not journaled: "+err.Error(), http.StatusInternalServerError)
		return
	}
	evs := make([]events.Event, len(docs))
	for i, doc := range docs {
		evs[i] = events.NewAdmitted(doc, admittedAt)
		evs[i].Tenant = wire
	}
	out := s.Stream.PublishBatch(evs)
	s.Durable.AckEvents(journalIDs)
	s.metAdmitted.With(wire).Add(int64(len(out)))
	s.metBatchSize.Observe(float64(len(out)))
	reply := make([]byte, 0, 8*len(out))
	for _, ev := range out {
		reply = strconv.AppendUint(reply, ev.Seq, 10)
		reply = append(reply, '\n')
	}
	w.Write(reply)
	if len(forwarded) > 0 {
		fmt.Fprintf(w, "forwarded to %s\n", strings.Join(forwarded, " "))
	}
}

// Overload is the documented JSON body of a 429 from POST /events: the
// node's admission limit (Config.MaxPendingEvents) is full and the caller
// should retry after RetryAfterSeconds. Cluster peers use the shape to
// tell shed load (retry later, nothing is wrong) from hard failure.
type Overload struct {
	Error             string `json:"error"` // always "overloaded"
	RetryAfterSeconds int    `json:"retry_after_seconds"`
}

func writeOverloaded(w http.ResponseWriter) {
	w.Header().Set("Retry-After", "1")
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusTooManyRequests)
	json.NewEncoder(w).Encode(Overload{Error: "overloaded", RetryAfterSeconds: 1})
}

// ruleInfos lists every tenant's rules (default tenant first, then
// tenants in id order) plus the owner stamp: on clustered deployments
// every locally registered rule is owned by this node. Single-tenant,
// single-node output is unchanged (both fields are omitempty).
func (s *System) ruleInfos() []engine.RuleInfo {
	infos := s.Engine.RuleInfos()
	if s.Cluster != nil {
		for i := range infos {
			infos[i].Owner = s.Cluster.ID()
		}
	}
	return infos
}

// Health is the /healthz response body. Ready is the load-balancer
// signal. It is false with Status "starting" until start-up is done (see
// SetStarting), and false with Status "degraded" while the node is alive
// but admission pressure approaches the configured -max-pending-events
// limit, so traffic drains away before hard 429 shedding starts. Either
// way the HTTP status stays 200: the node is live, just not ready.
type Health struct {
	Status             string           `json:"status"`
	Ready              bool             `json:"ready"`
	UptimeSeconds      float64          `json:"uptime_seconds"`
	Rules              int              `json:"rules"`
	Languages          int              `json:"languages"`
	InstancesCreated   int              `json:"instances_created"`
	InstancesCompleted int              `json:"instances_completed"`
	InstancesDied      int              `json:"instances_died"`
	Notifications      int              `json:"notifications"`       // messages sent since start (Notifier.Count)
	Store              *store.Health    `json:"store,omitempty"`     // absent for in-memory deployments
	Cluster            *cluster.Status  `json:"cluster,omitempty"`   // absent for single-node deployments
	Admission          *AdmissionHealth `json:"admission,omitempty"` // absent without -max-pending-events
	Tenants            []TenantHealth   `json:"tenants,omitempty"`   // absent while only the default tenant is in use
}

// AdmissionHealth reports event-admission pressure: how many POST
// /events requests hold a slot right now, the configured cap, and the
// pending level at which Ready degrades.
type AdmissionHealth struct {
	Pending          int `json:"pending"`
	MaxPendingEvents int `json:"max_pending_events"`
	ReadyThreshold   int `json:"ready_threshold"`
}

// readyThreshold is the pending-admissions level at which /healthz
// degrades: 90% of the cap, but at least 1 so a tiny cap still has a
// degraded band before outright 429s.
func readyThreshold(maxPending int) int {
	t := maxPending * 9 / 10
	if t < 1 {
		t = 1
	}
	return t
}

func (s *System) healthz(w http.ResponseWriter, r *http.Request) {
	st := s.Engine.Stats()
	h := Health{
		Status:             "ok",
		Ready:              true,
		UptimeSeconds:      time.Since(s.started).Seconds(),
		Rules:              st.RulesRegistered,
		Languages:          len(s.GRH.Languages()),
		InstancesCreated:   st.InstancesCreated,
		InstancesCompleted: st.InstancesCompleted,
		InstancesDied:      st.InstancesDied,
		Notifications:      s.Notifier.Count(),
	}
	if ids := s.Tenants.IDs(); len(ids) > 1 {
		// Listing order: the default tenant (wire form "") first.
		def := s.Tenants.DefaultID()
		ids = append([]string{def}, slices.DeleteFunc(ids, func(id string) bool { return id == def })...)
		for _, id := range ids {
			if t, ok := s.Tenants.Lookup(id); ok {
				h.Tenants = append(h.Tenants, TenantHealth{ID: id, Rules: t.Rules(), PendingEvents: t.Pending()})
			}
		}
	}
	if s.maxPending > 0 {
		a := AdmissionHealth{
			Pending:          len(s.eventSlots),
			MaxPendingEvents: s.maxPending,
			ReadyThreshold:   readyThreshold(s.maxPending),
		}
		h.Admission = &a
		if a.Pending >= a.ReadyThreshold {
			h.Ready = false
			h.Status = "degraded"
		}
	}
	if s.starting.Load() {
		h.Ready = false
		h.Status = "starting"
	}
	if s.Durable != nil {
		sh := s.Durable.Health()
		h.Store = &sh
	}
	if s.Cluster != nil {
		cs := s.Cluster.Status()
		h.Cluster = &cs
	}
	writeJSON(w, h)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// Close shuts the system down gracefully: the engine stops accepting
// detections and drains every in-flight rule instance, then the event
// services release their stream subscriptions, and finally the durable
// store (if any) snapshots, compacts and closes its journal. Safe to call
// more than once.
func (s *System) Close() {
	if s.Cluster != nil {
		// First: stop probing, forwarding and journal shipping before the
		// engine and store they feed off shut down.
		s.Cluster.Close()
	}
	// Unsubscribe the detection hosts, then drain the engine's rule
	// instances.
	s.Matcher.Close()
	s.Snoop.Close()
	s.Engine.Close()
	if s.Durable != nil {
		if err := s.Durable.Close(); err != nil {
			s.Log.Warn("store close", "error", err.Error())
		}
	}
}

// Recover replays the durable store's reconstructed state into this
// system: every recovered rule document is re-parsed and re-registered
// through the engine's regular compile and validation path (restoring its
// original id, registration time and tenant space), and every orphaned
// event — accepted before the crash but never dispatched — is
// re-published on the stream under its journaled tenant. Records that
// fail to parse or re-register are skipped with a logged, metered
// warning. Call it once, after NewLocal and before serving traffic; a nil
// store (in-memory deployment) is a no-op.
func (s *System) Recover() (store.RecoveryStats, error) {
	if s.Durable == nil {
		return store.RecoveryStats{}, nil
	}
	return s.Durable.RecoverTenants(s.registerRecovered, s.publishRecovered)
}

// Distribute re-registers every component language in the GRH as a REMOTE
// service at baseURL (as produced by Mux), turning the in-process wiring
// into the distributed architecture of Fig. 3: all component communication
// then travels over HTTP through the wire protocol. The engine keeps
// receiving detections locally unless replyTo routing is configured on the
// services' Deliverer.
func (s *System) Distribute(baseURL string) error {
	for _, l := range s.languages() {
		if err := s.GRH.Register(l.descriptor(baseURL + l.path)); err != nil {
			return err
		}
	}
	return nil
}

// registerStatus is the HTTP status of a rule the engine refused: a rule
// whose component expression does not compile is a malformed request
// (400); other failures (unbound variables, duplicate ids, unroutable
// components) are 422.
func registerStatus(err error) int {
	if errors.Is(err, engine.ErrBadExpression) {
		return http.StatusBadRequest
	}
	return http.StatusUnprocessableEntity
}

// language is one built-in component language: its namespace, the kind
// of component it serves, the path Mux mounts its service under, the
// service, and how it compiles a component at registration (nil: it has
// nothing to compile).
type language struct {
	ns, name, path string
	kind           ruleml.ComponentKind
	svc            grh.Service
	compile        func(ruleml.Component) (any, error)
}

// languages is the table of built-in languages, the one place NewLocal,
// Distribute and Mux take them from.
func (s *System) languages() []language {
	return []language{
		{services.MatcherNS, "atomic event matcher", "/services/matcher", ruleml.EventComponent, s.Matcher, s.Matcher.Compile},
		{snoop.NS, "SNOOP detection service", "/services/snoop", ruleml.EventComponent, s.Snoop, s.Snoop.Compile},
		{services.XQueryNS, "XQuery service", "/services/xquery", ruleml.QueryComponent, s.XQuery, services.CompileXQuery},
		{services.DatalogNS, "Datalog service", "/services/datalog", ruleml.QueryComponent, s.Datalog, services.CompileDatalog},
		{services.TestNS, "test evaluator", "/services/test", ruleml.TestComponent, services.TestEvaluator{}, services.CompileTest},
		{services.ActionNS, "action executor", "/services/action", ruleml.ActionComponent, s.Actions, nil},
	}
}

// descriptor is the language's GRH registration: its in-process service,
// or with an endpoint the remote one behind it.
func (l language) descriptor(endpoint string) grh.Descriptor {
	d := grh.Descriptor{Language: l.ns, Name: l.name, Kinds: []ruleml.ComponentKind{l.kind},
		FrameworkAware: true, Local: l.svc, Compile: l.compile}
	if endpoint != "" {
		d.Name += " (remote)"
		d.Local, d.Endpoint = nil, endpoint
	}
	return d
}
