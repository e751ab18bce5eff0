// Package cluster is the multi-node layer of the engine: a static peer
// list of ecad replicas among which registered rules are partitioned by
// consistent hash on rule id, incoming events are forwarded to the
// replicas whose rules can match them (by event vocabulary), and each
// node streams its write-ahead journal (internal/store) to a designated
// follower so the follower can take the partition over — replaying the
// mirrored journal through the regular crash-recovery path — when health
// probes declare the primary dead. See docs/CLUSTERING.md for the
// topology, the replication wire format and the failover runbook.
package cluster

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/ruleml"
	"repro/internal/store"
	"repro/internal/xmltree"
)

// OriginHeader marks a request forwarded by a peer: the value is the
// forwarding node's id. A node never re-forwards a request carrying it,
// which makes forwarding loop-free by construction.
const OriginHeader = "X-ECA-Cluster-Origin"

// Defaults for Options.
const (
	DefaultProbeInterval = 1 * time.Second
	DefaultDownAfter     = 3
	DefaultHTTPTimeout   = 5 * time.Second
)

// shipFlush is how often buffered replication records are flushed to the
// follower even when the batch is small.
const shipFlush = 100 * time.Millisecond

// Peer names one cluster member: a stable node id and the base URL of its
// HTTP surface (system.Mux).
type Peer struct {
	ID  string `json:"id"`
	URL string `json:"url"`
}

// Options configures a cluster node.
type Options struct {
	// NodeID is this node's id; it must appear in Peers.
	NodeID string
	// Peers is the full static member list, including this node.
	Peers []Peer
	// ReplicateTo is the peer id this node streams its journal to. Empty
	// picks the successor in sorted node-id order (a ring a→b→c→a);
	// "none" disables replication even when a durable store is present.
	ReplicateTo string
	// ProbeInterval is the health-probe cadence; DefaultProbeInterval when
	// zero.
	ProbeInterval time.Duration
	// DownAfter is how many consecutive probe failures declare a peer
	// down; DefaultDownAfter when zero.
	DownAfter int
	// HTTPTimeout bounds every forwarded or probe request;
	// DefaultHTTPTimeout when zero.
	HTTPTimeout time.Duration
	// Obs receives cluster metrics and forwarded-hop trace spans; nil runs
	// the layer uninstrumented.
	Obs *obs.Hub
	// Log receives structured cluster logging; nil disables it.
	Log *obs.Logger
}

// Hooks are the narrow slices of the host system the cluster layer calls
// back into. RegisterRecovered and PublishRecovered are the same two-phase
// recovery callbacks System.Recover uses for crash recovery, reused here
// for partition takeover.
type Hooks struct {
	// Local is the rule set registered on this node, for ownership
	// listings, vocabulary advertisement and local event matching; nil
	// routes conservatively (every event also stays local).
	Local Local
	// RegisterRecovered registers one rule taken over from a dead peer
	// through the engine's regular validation path, restoring its id and
	// registration time into the tenant's space it was journaled under
	// (wire form; "" = default tenant).
	RegisterRecovered func(tenant, id string, doc *xmltree.Node, registered time.Time) error
	// PublishRecovered re-publishes one orphaned event (accepted by the
	// dead peer, never dispatched) on the local stream, into its tenant's
	// space.
	PublishRecovered func(tenant string, doc *xmltree.Node) error
}

// Local is what the cluster reads of the rules registered on this node: the
// engine, whose rule plans list the event names each rule listens to.
type Local interface {
	// Rules returns the registered rule ids.
	Rules() []string
	// Listens reports whether a registered rule listens to the event name
	// (or to every name).
	Listens(name xmltree.Name) bool
	// Vocabulary returns the event names the registered rules listen to,
	// in Clark notation and sorted, and whether one listens to every name.
	Vocabulary() (names []string, wildcard bool)
}

// peerState is this node's view of one remote peer.
type peerState struct {
	id  string
	url string
	// up is the probed liveness; peers start optimistically up so events
	// are routed conservatively until the first probe settles the view.
	up       bool
	everSeen bool // a probe has succeeded at least once
	fails    int
	lastSeen time.Time
	// vocab/wildcard advertise which event terms the peer's rules match,
	// learned from its /cluster/status; vocabKnown is false until the
	// first successful probe (then routing is conservative: forward).
	vocab      map[string]bool
	wildcard   bool
	vocabKnown bool
	// learned are terms this node routed to the peer at registration time,
	// authoritative only until the next probe refresh.
	learned map[string]bool
}

type metrics struct {
	forwarded      *obs.CounterVec // cluster_forwarded_events_total{peer}
	forwardErrs    *obs.CounterVec // cluster_forward_errors_total{peer,reason}
	replicated     *obs.Counter    // cluster_replicated_records_total
	peerUp         *obs.GaugeVec   // cluster_peer_up{peer}
	takeovers      *obs.Counter    // cluster_takeovers_total
	federationErrs *obs.CounterVec // cluster_federation_errors_total{peer}
}

func newMetrics(h *obs.Hub) metrics {
	r := h.Metrics()
	return metrics{
		forwarded:      r.CounterVec("cluster_forwarded_events_total", "Events forwarded to a peer replica, by peer id.", "peer"),
		forwardErrs:    r.CounterVec("cluster_forward_errors_total", "Forwarding failures, by peer id and reason (shed = peer answered 429 overloaded, quota = peer answered 429 tenant quota, error = hard failure).", "peer", "reason"),
		replicated:     r.Counter("cluster_replicated_records_total", "Journal records acknowledged by this node's replication follower."),
		peerUp:         r.GaugeVec("cluster_peer_up", "Probed peer liveness (1 = up, 0 = down), by peer id.", "peer"),
		takeovers:      r.Counter("cluster_takeovers_total", "Partitions taken over from peers declared dead."),
		federationErrs: r.CounterVec("cluster_federation_errors_total", "Peer /metrics scrapes that failed during /cluster/metrics federation, by peer id.", "peer"),
	}
}

// Node is one cluster member's view of the cluster. Safe for concurrent
// use.
type Node struct {
	id       string
	selfURL  string
	opts     Options
	ring     *Ring
	hooks    Hooks
	store    *store.Store // nil: no journal to replicate
	follower string       // peer id we ship our journal to; "" = disabled
	client   *http.Client
	met      metrics
	hub      *obs.Hub
	log      *obs.Logger

	mu        sync.Mutex
	peers     map[string]*peerState     // every peer but self
	replicas  map[string]*store.Replica // primaries whose journals we mirror
	takenOver map[string]bool
	takeovers int

	idSeq   atomic.Uint64
	repLost atomic.Bool
	recs    chan store.RepRecord
	stop    chan struct{}
	once    sync.Once
	wg      sync.WaitGroup
}

// New builds a cluster node. st may be nil (no durable store): sharding
// and forwarding still work, but this node replicates nothing outbound.
func New(o Options, hooks Hooks, st *store.Store) (*Node, error) {
	if o.NodeID == "" {
		return nil, errors.New("cluster: node id required")
	}
	if o.ProbeInterval <= 0 {
		o.ProbeInterval = DefaultProbeInterval
	}
	if o.DownAfter <= 0 {
		o.DownAfter = DefaultDownAfter
	}
	if o.HTTPTimeout <= 0 {
		o.HTTPTimeout = DefaultHTTPTimeout
	}
	ids := make([]string, 0, len(o.Peers))
	var selfURL string
	seen := map[string]bool{}
	for _, p := range o.Peers {
		if p.ID == "" || p.URL == "" {
			return nil, fmt.Errorf("cluster: peer needs id and url, got %+v", p)
		}
		if seen[p.ID] {
			return nil, fmt.Errorf("cluster: duplicate peer id %q", p.ID)
		}
		seen[p.ID] = true
		ids = append(ids, p.ID)
		if p.ID == o.NodeID {
			selfURL = p.URL
		}
	}
	if selfURL == "" {
		return nil, fmt.Errorf("cluster: node id %q not in the peer list", o.NodeID)
	}
	ring := NewRing(ids)
	n := &Node{
		id:        o.NodeID,
		selfURL:   strings.TrimRight(selfURL, "/"),
		opts:      o,
		ring:      ring,
		hooks:     hooks,
		store:     st,
		client:    &http.Client{Timeout: o.HTTPTimeout, Transport: protocol.Transport},
		met:       newMetrics(o.Obs),
		hub:       o.Obs,
		log:       o.Log,
		peers:     map[string]*peerState{},
		replicas:  map[string]*store.Replica{},
		takenOver: map[string]bool{},
		recs:      make(chan store.RepRecord, 4096),
		stop:      make(chan struct{}),
	}
	for _, p := range o.Peers {
		if p.ID == n.id {
			continue
		}
		n.peers[p.ID] = &peerState{id: p.ID, url: strings.TrimRight(p.URL, "/"), up: true,
			vocab: map[string]bool{}, learned: map[string]bool{}}
		n.met.peerUp.With(p.ID).Set(1)
	}
	switch o.ReplicateTo {
	case "none":
		n.follower = ""
	case "":
		n.follower = ring.Successor(n.id)
	default:
		if _, ok := n.peers[o.ReplicateTo]; !ok {
			return nil, fmt.Errorf("cluster: -replicate-to %q is not a peer", o.ReplicateTo)
		}
		n.follower = o.ReplicateTo
	}
	return n, nil
}

// ID returns this node's id.
func (n *Node) ID() string { return n.id }

// Follower returns the peer id this node replicates its journal to, if any.
func (n *Node) Follower() string {
	if n.store == nil {
		return ""
	}
	return n.follower
}

// Start launches the health prober and, when a durable store and a
// follower are configured, the journal shipper. Call it once, after crash
// recovery has replayed the local store (the shipper's first act is a full
// base sync of the live mirror, which must include recovered state).
func (n *Node) Start() {
	n.once.Do(func() {
		n.wg.Add(1)
		go n.probeLoop()
		if n.store != nil && n.follower != "" {
			n.store.SetReplicationSink(func(r store.RepRecord) {
				select {
				case n.recs <- r:
				default:
					// Shipper is behind and the buffer is full: drop and
					// flag, the shipper re-bases from ReplicationState.
					n.repLost.Store(true)
				}
			})
			n.wg.Add(1)
			go n.shipLoop()
		}
	})
}

// Close stops the prober and shipper. Safe to call more than once.
func (n *Node) Close() {
	select {
	case <-n.stop:
	default:
		close(n.stop)
	}
	n.wg.Wait()
}

// --- placement ---------------------------------------------------------------------

// Owner returns the node id owning a rule id on the consistent-hash ring.
func (n *Node) Owner(ruleID string) string { return n.ring.Owner(ruleID) }

// AssignID mints a cluster-unique rule id for a registration that arrived
// without one. The id must exist before hashing decides the owner, so the
// engine's local rule-N counter cannot be used: ids are derived from this
// node's id, a local counter and the document, giving stable sharding and
// no cross-node collisions.
func (n *Node) AssignID(doc *xmltree.Node) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%s|%d|%s", n.id, n.idSeq.Add(1), doc.String())))
	return "r-" + hex.EncodeToString(sum[:6])
}

// --- rule registration forwarding --------------------------------------------------

// ErrPeerDown reports a forward target that probes have declared dead.
var ErrPeerDown = errors.New("cluster: peer down")

// ForwardRule posts the rule document to its owner's /engine/rules and
// relays the owner's status code and response body. tenant is the rule
// space the registration targets (wire form; "" = default), carried on
// the hop's X-ECA-Tenant header so the owner registers into the same
// space. names are the event names the rule listens to, from its plan
// (nil: every name). On success they are learned into the routing table
// immediately, without waiting for the next probe of the owner. The
// caller must have stamped rule.Doc with the rule's id.
// Returns ErrPeerDown (wrapped) when the owner is currently declared
// dead — the caller then falls back to registering locally so the
// cluster stays writable during failover.
func (n *Node) ForwardRule(tenant string, rule *ruleml.Rule, names []xmltree.Name, owner string) (int, string, error) {
	n.mu.Lock()
	ps, ok := n.peers[owner]
	up := ok && ps.up
	n.mu.Unlock()
	if !ok {
		return 0, "", fmt.Errorf("cluster: unknown owner %q", owner)
	}
	if !up {
		return 0, "", fmt.Errorf("%w: %s", ErrPeerDown, owner)
	}
	tr := n.hub.Traces().Begin("cluster:"+rule.ID, 1)
	start := time.Now()
	status, body, err := n.post(ps.url+"/engine/rules", rule.Doc.String(), tr.ID(), tenant)
	tr.AddSpan(obs.Span{Stage: "forward", Component: owner, Language: "register",
		Mode: "cluster", TuplesOut: 1, Start: start, Duration: time.Since(start), Err: errString(err)})
	if err != nil {
		tr.Finish("died")
		return 0, "", fmt.Errorf("cluster: forwarding rule %s to %s: %w", rule.ID, owner, err)
	}
	tr.Finish("completed")
	if status >= 200 && status < 300 {
		n.mu.Lock()
		for _, name := range names {
			ps.learned[name.String()] = true
		}
		if names == nil {
			ps.wildcard = true // the rule listens to every name
		}
		n.mu.Unlock()
		n.log.Info("cluster: rule forwarded to owner", "rule", rule.ID, "owner", owner)
	}
	return status, body, nil
}

// --- event routing -----------------------------------------------------------------

// RouteResult summarizes one RouteEvent decision.
type RouteResult struct {
	// Local reports whether the event must also be published on this node.
	Local bool
	// Forwarded lists peers that accepted the event.
	Forwarded []string
	// Shed lists peers that answered 429 (overloaded) even after the
	// Retry-After grace — the event was load-shed, not lost to a failure.
	Shed []string
	// Failed lists peers that hard-failed (connection error or 5xx).
	Failed []string
}

// RouteEvent decides which replicas must see the event — every peer whose
// advertised (or registration-learned) vocabulary matches the event's root
// element, every peer whose vocabulary is not yet known, and this node if
// its own rules match (or nobody else does) — and forwards it to each
// remote target, one hop, with the origin header set so targets never
// re-forward. tenant is the event's rule space (wire form; "" = default),
// carried on each hop's X-ECA-Tenant header so remote matching stays
// inside the same space. Forwarded hops carry an X-ECA-Trace-Id and are
// recorded as cluster-mode trace spans.
func (n *Node) RouteEvent(tenant string, doc *xmltree.Node) RouteResult {
	term := EventTerm(doc)
	selfMatch := n.localMatches(doc)
	n.mu.Lock()
	var targets []*peerState
	for _, ps := range n.peers {
		if !ps.up {
			continue
		}
		if !ps.vocabKnown || ps.wildcard || ps.vocab[term] || ps.learned[term] {
			targets = append(targets, ps)
		}
	}
	n.mu.Unlock()
	sort.Slice(targets, func(i, j int) bool { return targets[i].id < targets[j].id })

	res := RouteResult{Local: selfMatch || len(targets) == 0}
	if len(targets) == 0 {
		return res
	}
	body := doc.String()
	tr := n.hub.Traces().Begin("cluster:"+term, len(targets))
	for _, ps := range targets {
		start := time.Now()
		outcome, err := n.forwardEvent(ps, body, tr.ID(), tenant)
		tr.AddSpan(obs.Span{Stage: "forward", Component: ps.id, Language: term,
			Mode: "cluster", TuplesOut: 1, Start: start, Duration: time.Since(start), Err: errString(err)})
		switch outcome {
		case forwardOK:
			res.Forwarded = append(res.Forwarded, ps.id)
			n.met.forwarded.With(ps.id).Inc()
		case forwardShed:
			res.Shed = append(res.Shed, ps.id)
			n.met.forwardErrs.With(ps.id, "shed").Inc()
			n.log.Warn("cluster: peer shed forwarded event", "peer", ps.id, "term", term)
		case forwardQuota:
			// The peer's 429 named the tenant's quota, not its own load:
			// retrying on another peer would hit the same quota, so the
			// shed is final but metered under its own reason.
			res.Shed = append(res.Shed, ps.id)
			n.met.forwardErrs.With(ps.id, "quota").Inc()
			n.log.Warn("cluster: peer rejected forwarded event on tenant quota",
				"peer", ps.id, "term", term, "tenant", tenant)
		case forwardFailed:
			res.Failed = append(res.Failed, ps.id)
			n.met.forwardErrs.With(ps.id, "error").Inc()
			n.log.Warn("cluster: event forward failed", "peer", ps.id, "term", term, "error", errString(err))
		}
	}
	if len(res.Forwarded) > 0 {
		tr.Finish("completed")
	} else {
		tr.Finish("died")
	}
	return res
}

type forwardOutcome int

const (
	forwardOK forwardOutcome = iota
	forwardShed
	forwardQuota
	forwardFailed
)

// forwardEvent posts the event to one peer. A 429 is shed load, not a hard
// failure: the documented Retry-After is honored once (bounded to a
// second) before giving up for this event — a distinction the overload
// body shape of /events exists to make possible. The final 429's body is
// inspected to tell a global-overload shed from a per-tenant quota
// rejection, which is metered under its own reason.
func (n *Node) forwardEvent(ps *peerState, body, traceID, tenant string) (forwardOutcome, error) {
	status, respBody, err := n.postEvent(ps, body, traceID, tenant)
	if err != nil {
		return forwardFailed, err
	}
	if status == http.StatusTooManyRequests {
		time.Sleep(retryAfter(respBody.retryAfter))
		status, respBody, err = n.postEvent(ps, body, traceID, tenant)
		if err != nil {
			return forwardFailed, err
		}
		if status == http.StatusTooManyRequests {
			if shedReason(respBody.text) == "quota" {
				return forwardQuota, nil
			}
			return forwardShed, nil
		}
	}
	if status < 200 || status > 299 {
		return forwardFailed, fmt.Errorf("HTTP %d: %s", status, strings.TrimSpace(respBody.text))
	}
	return forwardOK, nil
}

// shedReason classifies a 429 body: "quota" when the peer named a tenant
// quota ({"error": "quota_exceeded", ...}), "shed" for the global
// overload shape (or anything unparsable — the conservative reading).
func shedReason(body string) string {
	var resp struct {
		Error string `json:"error"`
	}
	if json.Unmarshal([]byte(body), &resp) == nil && resp.Error == "quota_exceeded" {
		return "quota"
	}
	return "shed"
}

type eventResponse struct {
	text       string
	retryAfter string
}

func (n *Node) postEvent(ps *peerState, body, traceID, tenant string) (int, eventResponse, error) {
	req, err := http.NewRequest(http.MethodPost, ps.url+"/events", strings.NewReader(body))
	if err != nil {
		return 0, eventResponse{}, err
	}
	req.Header.Set("Content-Type", "application/xml")
	req.Header.Set(OriginHeader, n.id)
	if traceID != "" {
		req.Header.Set(protocol.TraceIDHeader, traceID)
	}
	if tenant != "" {
		req.Header.Set(protocol.TenantHeader, tenant)
	}
	resp, err := n.client.Do(req)
	if err != nil {
		return 0, eventResponse{}, err
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	return resp.StatusCode, eventResponse{text: string(data), retryAfter: resp.Header.Get("Retry-After")}, nil
}

// retryAfter parses a Retry-After seconds value, bounded to [100ms, 1s] so
// a forwarding hop never stalls its caller for long.
func retryAfter(v string) time.Duration {
	d := 100 * time.Millisecond
	if secs, err := strconv.Atoi(strings.TrimSpace(v)); err == nil && secs > 0 {
		d = time.Duration(secs) * time.Second
	}
	if d > time.Second {
		d = time.Second
	}
	return d
}

func (n *Node) post(url, body, traceID, tenant string) (int, string, error) {
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		return 0, "", err
	}
	req.Header.Set("Content-Type", "application/xml")
	req.Header.Set(OriginHeader, n.id)
	if traceID != "" {
		req.Header.Set(protocol.TraceIDHeader, traceID)
	}
	if tenant != "" {
		req.Header.Set(protocol.TenantHeader, tenant)
	}
	resp, err := n.client.Do(req)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	return resp.StatusCode, string(data), nil
}

// Event routing matches an incoming event's root element against the event
// vocabulary of the cluster's rules: the names each rule's event component
// listens to, as its compiled form reported them when the rule registered
// (the root names of its leaf patterns). A rule whose form reports no names,
// such as an opaque event component, is a wildcard: its owner must see
// every event. A node advertises its local vocabulary on /cluster/status,
// so peers learn where each term lives and forward events only to the
// replicas that can match them.

// EventTerm returns the vocabulary term of an event payload: its root
// element's name in Clark notation.
func EventTerm(doc *xmltree.Node) string {
	root := doc.Root()
	if root == nil {
		return ""
	}
	return root.Name.String()
}

// localMatches reports whether a locally registered rule listens to the
// event's root element name (or to every name).
func (n *Node) localMatches(doc *xmltree.Node) bool {
	if n.hooks.Local == nil {
		return true
	}
	var name xmltree.Name
	if root := doc.Root(); root != nil {
		name = root.Name
	}
	return n.hooks.Local.Listens(name)
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
