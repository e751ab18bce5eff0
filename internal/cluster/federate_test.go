package cluster

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/obs"
)

// newFederationNode builds a node whose hub carries one counter and
// whose peer list contains the given peer URLs (self is a placeholder
// URL — the handler never scrapes itself over HTTP).
func newFederationNode(t *testing.T, peerURLs map[string]string) (*Node, *obs.Hub) {
	t.Helper()
	hub := obs.NewHub()
	hub.Metrics().Counter("events_admitted_total", "Events accepted.").Add(11)
	peers := []Peer{{ID: "n1", URL: "http://self.invalid"}}
	for id, url := range peerURLs {
		peers = append(peers, Peer{ID: id, URL: url})
	}
	n, err := New(Options{NodeID: "n1", Peers: peers, Obs: hub}, Hooks{}, nil)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return n, hub
}

func TestClusterMetricsFederation(t *testing.T) {
	peerReg := obs.NewRegistry()
	peerReg.Counter("events_admitted_total", "Events accepted.").Add(5)
	peerReg.Histogram("event_e2e_seconds", "E2E latency.", nil).Observe(0.02)
	peerSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/metrics" {
			http.NotFound(w, r)
			return
		}
		peerReg.WritePrometheus(w)
	}))
	defer peerSrv.Close()

	n, _ := newFederationNode(t, map[string]string{"n2": peerSrv.URL})
	rec := httptest.NewRecorder()
	n.MetricsHandler(rec, httptest.NewRequest("GET", "/cluster/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body)
	}
	if _, err := obs.ParseExposition(bytes.NewReader(rec.Body.Bytes())); err != nil {
		t.Fatalf("federated exposition does not parse: %v\n%s", err, rec.Body)
	}
	exp, err := obs.ParseExposition(bytes.NewReader(rec.Body.Bytes()))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	nodes := exp.LabelValues("node")
	if len(nodes) != 2 || nodes[0] != "n1" || nodes[1] != "n2" {
		t.Fatalf("nodes = %v, want [n1 n2]", nodes)
	}
	if v, ok := exp.Value("events_admitted_total", map[string]string{"node": "n1"}); !ok || v != 11 {
		t.Errorf("self counter = %v,%v want 11", v, ok)
	}
	if v, ok := exp.Value("events_admitted_total", map[string]string{"node": "n2"}); !ok || v != 5 {
		t.Errorf("peer counter = %v,%v want 5", v, ok)
	}
	if got := exp.Sum("events_admitted_total", nil); got != 16 {
		t.Errorf("fleet total = %v want 16", got)
	}
	// Peer histograms federate with their bucket layout intact.
	d := exp.HistogramDist("event_e2e_seconds", map[string]string{"node": "n2"})
	if d.Count != 1 || d.Sum != 0.02 {
		t.Errorf("peer histogram dist = count %d sum %v", d.Count, d.Sum)
	}
}

func TestClusterMetricsFederationSkipsFailingPeer(t *testing.T) {
	// n2 refuses connections (closed server); the view must still serve
	// n1's samples and count the scrape failure.
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()

	n, hub := newFederationNode(t, map[string]string{"n2": deadURL})
	rec := httptest.NewRecorder()
	n.MetricsHandler(rec, httptest.NewRequest("GET", "/cluster/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("status = %d", rec.Code)
	}
	if _, err := obs.ParseExposition(bytes.NewReader(rec.Body.Bytes())); err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	if !strings.Contains(rec.Body.String(), `node="n1"`) {
		t.Fatalf("self samples missing:\n%s", rec.Body)
	}
	if strings.Contains(rec.Body.String(), `node="n2"`) {
		t.Fatalf("dead peer samples present:\n%s", rec.Body)
	}
	if got := hub.Metrics().CounterVec("cluster_federation_errors_total", "", "peer").With("n2").Value(); got != 1 {
		t.Errorf("federation error counter = %d want 1", got)
	}

	rec = httptest.NewRecorder()
	n.MetricsHandler(rec, httptest.NewRequest("POST", "/cluster/metrics", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST status = %d want 405", rec.Code)
	}
}
