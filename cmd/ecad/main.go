// Command ecad runs the ECA engine daemon: the engine, the Generic Request
// Handler and every bundled component language service, exposed over HTTP
// (see system.Mux for the endpoint map). Rules and documents can be loaded
// at startup or pushed at runtime with ecactl.
//
// Usage:
//
//	ecad -addr :8080 [-rule file.xml]... [-doc uri=file.xml]... \
//	     [-datalog rules.dl] [-travel] [-distribute] [-metrics] [-pprof] [-v] \
//	     [-log-level info] [-log-format text|json] \
//	     [-data-dir DIR] [-fsync always|interval|never] \
//	     [-node-id ID -peers id=url,id=url,...] [-replicate-to ID|none] \
//	     [-probe-interval 1s] [-peer-down-after N] [-max-pending-events N] \
//	     [-default-tenant ID] [-tenant-quotas tenant:key=value,...]...
//
// The daemon shuts down gracefully on SIGINT/SIGTERM: the HTTP listener
// stops accepting requests, then the engine drains every in-flight rule
// instance before the process exits. The GRH retries idempotent dispatches
// and breaks failing endpoints' circuits with grh.DefaultRetryPolicy and
// grh.DefaultBreakerPolicy (see docs/RESILIENCE.md). It keeps no answers:
// every query and test is evaluated fresh on each dispatch (see
// docs/PERFORMANCE.md). Event detection runs inline on the publishing
// request, in stream order.
//
// With -data-dir the daemon is durable: rule registrations and accepted
// events are written to a checksummed write-ahead journal under DIR, and
// on start the daemon recovers the previous run's rules and any orphaned
// events before serving traffic (see docs/DURABILITY.md). Without
// -data-dir everything stays in memory, the historical behaviour.
//
// With -node-id and -peers the daemon joins a static cluster of ecad
// replicas: rules are partitioned across the peers by consistent hash on
// rule id, events are forwarded to the replicas whose rules match them,
// and (when durable) the journal is streamed to a follower that takes the
// partition over if this node dies (see docs/CLUSTERING.md). Without
// -peers the daemon runs single-node, behaviourally unchanged.
//
// The daemon is multi-tenant: a rule or event carrying an X-ECA-Tenant
// header (or ?tenant= parameter) lands in that tenant's isolated rule
// space; requests naming no tenant use the default tenant, whose
// behaviour is byte-identical with builds that predate multi-tenancy.
// -tenant-quotas caps a tenant's rules, in-flight events and event rate
// ("*" sets the quotas undeclared tenants get); see docs/MULTITENANCY.md.
//
// With -travel the daemon preloads the paper's car-rental scenario
// (documents, opaque service endpoints and the Fig. 4 rule). With
// -distribute the GRH re-registers every service as a remote endpoint of
// this daemon, so all component traffic flows through the HTTP wire
// protocol (the distributed deployment of Fig. 3).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/datalog"
	"repro/internal/domain/travel"
	"repro/internal/engine"
	"repro/internal/grh"
	"repro/internal/obs"
	"repro/internal/ontology"
	"repro/internal/ruleml"
	"repro/internal/store"
	"repro/internal/system"
	"repro/internal/tenant"
	"repro/internal/xmltree"
)

type repeated []string

func (r *repeated) String() string     { return strings.Join(*r, ",") }
func (r *repeated) Set(s string) error { *r = append(*r, s); return nil }

// options carries the parsed command-line configuration.
type options struct {
	addr          string
	datalogSrc    string
	registry      string
	loadTravel    bool
	distribute    bool
	metrics       bool
	pprof         bool
	verbose       bool
	logLevel      string
	logFormat     string
	dataDir       string
	fsync         string
	nodeID        string
	peers         string
	replicateTo   string
	probeInterval time.Duration
	peerDownAfter int
	maxPending    int
	defaultTenant string
	tenantQuotas  []string
	rules         []string
	docs          []string
}

// parsePeers reads the -peers value: comma-separated id=url pairs naming
// every cluster member, including this node.
func parsePeers(s string) ([]cluster.Peer, error) {
	var peers []cluster.Peer
	for _, pair := range strings.Split(s, ",") {
		pair = strings.TrimSpace(pair)
		if pair == "" {
			continue
		}
		id, url, ok := strings.Cut(pair, "=")
		if !ok || id == "" || url == "" {
			return nil, fmt.Errorf("-peers wants id=url pairs, got %q", pair)
		}
		peers = append(peers, cluster.Peer{ID: id, URL: url})
	}
	if len(peers) == 0 {
		return nil, fmt.Errorf("-peers is empty")
	}
	return peers, nil
}

func main() {
	var o options
	flag.StringVar(&o.addr, "addr", "127.0.0.1:8080", "listen address")
	flag.StringVar(&o.datalogSrc, "datalog", "", "Datalog rulebase file for the LP query service")
	flag.StringVar(&o.registry, "registry", "", "Turtle file with language-service descriptions to register (ontology-driven dispatch)")
	flag.BoolVar(&o.loadTravel, "travel", false, "preload the car-rental running example")
	flag.BoolVar(&o.distribute, "distribute", false, "route all component traffic over this daemon's HTTP endpoints")
	flag.BoolVar(&o.metrics, "metrics", true, "expose /metrics and /debug/traces (observability hub)")
	flag.BoolVar(&o.pprof, "pprof", true, "expose runtime profiling under /debug/pprof/")
	flag.BoolVar(&o.verbose, "v", false, "log engine evaluation traces (at debug level)")
	flag.StringVar(&o.logLevel, "log-level", "info", "minimum log level: debug, info, warn or error")
	flag.StringVar(&o.logFormat, "log-format", "text", "structured log encoding: text or json")
	flag.StringVar(&o.dataDir, "data-dir", "", "durable store directory for the rule/event journal (empty = in-memory only)")
	flag.StringVar(&o.fsync, "fsync", string(store.FsyncInterval), "journal fsync policy: always, interval or never")
	flag.StringVar(&o.nodeID, "node-id", "", "this node's id in a clustered deployment (requires -peers)")
	flag.StringVar(&o.peers, "peers", "", "static cluster member list as id=url,id=url,... including this node")
	flag.StringVar(&o.replicateTo, "replicate-to", "", "peer id to stream the journal to (empty = sorted successor, none = disable replication)")
	flag.DurationVar(&o.probeInterval, "probe-interval", cluster.DefaultProbeInterval, "cluster health-probe cadence")
	flag.IntVar(&o.peerDownAfter, "peer-down-after", cluster.DefaultDownAfter, "consecutive failed probes before a peer is declared down")
	flag.IntVar(&o.maxPending, "max-pending-events", 0, "max concurrent POST /events requests before shedding with 429 (0 = unlimited)")
	flag.StringVar(&o.defaultTenant, "default-tenant", "", "tenant id that tenant-less requests resolve to (default \"public\")")
	var rules, docs, quotas repeated
	flag.Var(&rules, "rule", "rule file to register at startup (repeatable)")
	flag.Var(&docs, "doc", "uri=file pair to load into the document store (repeatable)")
	flag.Var(&quotas, "tenant-quotas", "per-tenant quotas as tenant:max-rules=N,max-pending-events=N,rate=R,burst=N (tenant may be \"*\"; repeatable)")
	flag.Parse()
	o.rules, o.docs, o.tenantQuotas = rules, docs, quotas

	if err := run(o); err != nil {
		log.Fatal(err)
	}
}

func run(o options) error {
	level, err := obs.ParseLevel(o.logLevel)
	if err != nil {
		return fmt.Errorf("-log-level: %w", err)
	}
	if o.verbose && level > slog.LevelDebug {
		// -v means "show me the evaluation traces"; they are debug-level.
		level = slog.LevelDebug
	}
	logger := obs.NewLogger(os.Stderr, o.logFormat, level)

	cfg := system.Config{Namespaces: travel.Namespaces(), Log: logger, PProf: o.pprof, DefaultTenant: o.defaultTenant,
		Retry: grh.DefaultRetryPolicy, Breaker: grh.DefaultBreakerPolicy}
	for _, spec := range o.tenantQuotas {
		id, q, err := tenant.ParseQuotaSpec(spec)
		if err != nil {
			return fmt.Errorf("-tenant-quotas: %w", err)
		}
		if cfg.TenantQuotas == nil {
			cfg.TenantQuotas = map[string]tenant.Quotas{}
		}
		cfg.TenantQuotas[id] = q
	}
	if o.metrics {
		cfg.Obs = obs.NewHub()
		stop := obs.StartRuntimeSampler(cfg.Obs.Metrics(), obs.DefaultSampleInterval)
		defer stop()
	}
	if o.verbose {
		cfg.Logger = engine.LoggerFunc(func(format string, args ...any) {
			logger.Debug(fmt.Sprintf(format, args...))
		})
	}
	if o.dataDir != "" {
		policy, err := store.ParseFsyncPolicy(o.fsync)
		if err != nil {
			return fmt.Errorf("-fsync: %w", err)
		}
		st, err := store.Open(o.dataDir, store.Options{Fsync: policy, Obs: cfg.Obs, Log: logger})
		if err != nil {
			return err
		}
		cfg.Store = st
	}
	cfg.MaxPendingEvents = o.maxPending
	if o.peers != "" || o.nodeID != "" {
		if o.nodeID == "" || o.peers == "" {
			return fmt.Errorf("clustering needs both -node-id and -peers")
		}
		peers, err := parsePeers(o.peers)
		if err != nil {
			return err
		}
		cfg.Cluster = &cluster.Options{
			NodeID:        o.nodeID,
			Peers:         peers,
			ReplicateTo:   o.replicateTo,
			ProbeInterval: o.probeInterval,
			DownAfter:     o.peerDownAfter,
			Obs:           cfg.Obs,
			Log:           logger,
		}
	}
	if o.datalogSrc != "" {
		src, err := os.ReadFile(o.datalogSrc)
		if err != nil {
			return err
		}
		prog, err := datalog.Parse(string(src))
		if err != nil {
			return err
		}
		cfg.Datalog = prog
	}
	sys, err := system.NewLocal(cfg)
	if err != nil {
		return err
	}
	for _, pair := range o.docs {
		uri, file, ok := strings.Cut(pair, "=")
		if !ok {
			return fmt.Errorf("-doc wants uri=file, got %q", pair)
		}
		src, err := os.ReadFile(file)
		if err != nil {
			return err
		}
		doc, err := xmltree.ParseString(string(src))
		if err != nil {
			return fmt.Errorf("%s: %w", file, err)
		}
		sys.Store.Put(uri, doc)
	}

	if o.registry != "" {
		f, err := os.Open(o.registry)
		if err != nil {
			return err
		}
		n, err := ontology.RegisterFromTurtle(sys.GRH, f)
		f.Close()
		if err != nil {
			return err
		}
		logger.Info("language services registered from ontology", "count", n, "file", o.registry)
	}

	var opaqueDoc *xmltree.Node
	if o.loadTravel {
		travel.LoadStore(sys.Store)
		opaqueDoc = xmltree.MustParse(travel.ClassesXML)
	}

	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return err
	}
	base := "http://" + ln.Addr().String()
	mux := sys.Mux(opaqueDoc, travel.Namespaces())
	srv := &http.Server{Handler: mux}
	// The daemon serves before its start-up is done (the travel rule's
	// opaque URLs and -distribute need the live listener), so /healthz
	// says "starting" until recovery, start-up rules and the cluster are in.
	sys.SetStarting(true)

	serveErr := make(chan error, 1)
	go func() {
		if err := srv.Serve(ln); err != http.ErrServerClosed {
			serveErr <- err
		}
	}()
	logger.Info("ecad listening", "addr", base)
	if o.metrics {
		logger.Info("observability on", "metrics", base+"/metrics", "traces", base+"/debug/traces", "healthz", base+"/healthz")
	}
	if o.pprof {
		logger.Info("profiling on", "pprof", base+"/debug/pprof/")
	}
	logger.Info("resilience configured", "retries", cfg.Retry.MaxAttempts-1,
		"breaker_failures", cfg.Breaker.FailureThreshold, "breaker_cooldown", cfg.Breaker.Cooldown.String())

	if o.distribute {
		if err := sys.Distribute(base); err != nil {
			return err
		}
		logger.Info("distributed mode: component traffic routed over HTTP", "base", base)
	}
	if sys.Durable != nil {
		stats, err := sys.Recover()
		if err != nil {
			return err
		}
		logger.Info("durable store recovered", "dir", o.dataDir, "fsync", o.fsync,
			"rules", stats.Rules, "events", stats.Events, "skipped", stats.Skipped)
	}
	// A startup rule colliding with a recovered one (same id, e.g. the
	// car-rental rule after a restart) is already live — not an error.
	registerStartup := func(rule *ruleml.Rule) (bool, error) {
		err := sys.Engine.Register(rule)
		if err == nil {
			return true, nil
		}
		if sys.Durable != nil && errors.Is(err, engine.ErrDuplicateRule) {
			logger.Info("rule already recovered from the durable store", "rule", rule.ID)
			return false, nil
		}
		return false, err
	}
	if o.loadTravel {
		rule, err := ruleml.ParseString(travel.RuleXML(base+"/opaque/store", base+"/opaque/xquery"))
		if err != nil {
			return err
		}
		fresh, err := registerStartup(rule)
		if err != nil {
			return err
		}
		if fresh {
			logger.Info("rule registered", "rule", rule.ID, "source", "car-rental running example")
		}
	}
	for _, file := range o.rules {
		src, err := os.ReadFile(file)
		if err != nil {
			return err
		}
		rule, err := ruleml.ParseString(string(src))
		if err != nil {
			return fmt.Errorf("%s: %w", file, err)
		}
		fresh, err := registerStartup(rule)
		if err != nil {
			return fmt.Errorf("%s: %w", file, err)
		}
		if fresh {
			logger.Info("rule registered", "rule", rule.ID, "file", file)
		}
	}
	if sys.Cluster != nil {
		// After recovery and startup rules, so the journal shipper's opening
		// base sync mirrors the node's full live state.
		sys.StartCluster()
		logger.Info("cluster node started", "node", sys.Cluster.ID(),
			"peers", o.peers, "replicate_to", sys.Cluster.Follower())
	}
	sys.SetStarting(false)

	// Serve until SIGINT/SIGTERM, then drain: stop accepting HTTP first,
	// then let the engine finish every in-flight rule instance.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	logger.Info("signal received, shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		logger.Warn("http shutdown", "error", err.Error())
	}
	sys.Close()
	logger.Info("drained, bye")
	return nil
}
