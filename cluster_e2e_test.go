package eca_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/e2etest"
	"repro/internal/engine"
	"repro/internal/obs"
)

// TestClusterKillAndTakeover is the clustering smoke test: it boots three
// real ecad nodes as a cluster (consistent-hash rule sharding, vocabulary
// event forwarding, ring journal replication n1→n2→n3→n1), registers six
// rules through one node so they shard across all three, fires their
// events, SIGKILLs one rule-owning node, and proves the failover: the dead
// node's follower takes the partition over (cluster_takeovers_total ≥ 1)
// and every registered rule still fires when its event is re-sent to a
// survivor.
//
// Set ECA_E2E_CLUSTER_DATADIR to pin the per-node journal dirs to a known
// parent (CI archives them as artifacts on failure); by default temp dirs
// are used.
func TestClusterKillAndTakeover(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	_, ecactl := e2etest.Binaries(t)

	dataParent := os.Getenv("ECA_E2E_CLUSTER_DATADIR")
	if dataParent == "" {
		dataParent = filepath.Join(dir, "data")
	} else if err := os.RemoveAll(dataParent); err != nil {
		t.Fatal(err)
	}

	ids := []string{"n1", "n2", "n3"}
	addrs := make(map[string]string, len(ids))
	bases := make(map[string]string, len(ids))
	var peerList []string
	for _, id := range ids {
		addrs[id] = e2etest.FreeAddr(t)
		bases[id] = "http://" + addrs[id]
		peerList = append(peerList, id+"="+bases[id])
	}
	peers := strings.Join(peerList, ",")

	daemons := map[string]*e2etest.Daemon{}
	for _, id := range ids {
		daemons[id] = e2etest.Start(t, addrs[id], "-node-id", id, "-peers", peers,
			"-data-dir", filepath.Join(dataParent, id), "-fsync", "always",
			"-probe-interval", "200ms", "-peer-down-after", "2",
			"-log-format", "json")
	}
	// Pick two rule ids per node using the same hash ring the daemons use,
	// so the shard layout is known: n2 (the victim) is guaranteed to own
	// rules, and so are the survivors.
	ring := cluster.NewRing(ids)
	ruleOwner := map[string]string{}
	var ruleIDs []string
	need := map[string]int{"n1": 2, "n2": 2, "n3": 2}
	for i := 0; len(ruleIDs) < 6; i++ {
		id := fmt.Sprintf("er-%d", i)
		owner := ring.Owner(id)
		if need[owner] == 0 {
			continue
		}
		need[owner]--
		ruleOwner[id] = owner
		ruleIDs = append(ruleIDs, id)
	}

	// Register every rule through n1 — ecactl addressed via ECA_ENDPOINT,
	// no -s flag. Each rule has its own event vocabulary (t:ev-<id>).
	for _, id := range ruleIDs {
		ruleFile := filepath.Join(dir, id+".xml")
		ruleXML := `<eca:rule xmlns:eca="http://www.semwebtech.org/languages/2006/eca-ml" xmlns:t="http://t/" id="` + id + `">
		  <eca:event><t:ev-` + id + ` x="$X"/></eca:event>
		  <eca:action><t:pong x="$X"/></eca:action>
		</eca:rule>`
		if err := os.WriteFile(ruleFile, []byte(ruleXML), 0o644); err != nil {
			t.Fatal(err)
		}
		cmd := exec.Command(ecactl, "register", ruleFile)
		cmd.Env = append(os.Environ(), "ECA_ENDPOINT="+bases["n1"])
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("ecactl register %s: %v\n%s", id, err, out)
		}
	}
	// Every rule must live on exactly the node the ring assigns.
	for _, id := range ruleIDs {
		_, body := daemons[ruleOwner[id]].Get("/engine/rules?format=ids")
		if !strings.Contains(body, id) {
			t.Fatalf("rule %s not on its owner %s: %q", id, ruleOwner[id], body)
		}
	}

	fireAll := func(via string) {
		t.Helper()
		for _, id := range ruleIDs {
			ev := `<t:ev-` + id + ` xmlns:t="http://t/" x="7"/>`
			resp, err := http.Post(bases[via]+"/events", "application/xml", strings.NewReader(ev))
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}
	// firings sums each rule's firing count across the given nodes.
	firings := func(nodes ...string) map[string]int {
		t.Helper()
		total := map[string]int{}
		for _, nd := range nodes {
			_, body := daemons[nd].Get("/engine/rules")
			var listing struct {
				Rules []engine.RuleInfo `json:"rules"`
			}
			if err := json.Unmarshal([]byte(body), &listing); err != nil {
				t.Fatalf("%s rule listing: %v\n%s", nd, err, body)
			}
			for _, info := range listing.Rules {
				total[info.ID] += info.Firings
			}
		}
		return total
	}
	allFired := func(counts map[string]int) bool {
		for _, id := range ruleIDs {
			if counts[id] == 0 {
				return false
			}
		}
		return true
	}

	// Before the kill: fire every event via n1 until each rule has fired
	// once (vocabulary gossip needs a probe round to converge).
	e2etest.Eventually(t, "every rule to fire before the kill", func() bool {
		fireAll("n1")
		time.Sleep(200 * time.Millisecond)
		return allFired(firings(ids...))
	})

	// With all three nodes up, the federated metrics view on any node
	// must be lint-clean and carry every node's samples under its node
	// label (the admitted-events counter exists on all of them by now).
	status, fed := daemons["n1"].Get("/cluster/metrics")
	if status != 200 {
		t.Fatalf("/cluster/metrics status = %d: %s", status, fed)
	}
	if _, err := obs.ParseExposition(strings.NewReader(fed)); err != nil {
		t.Fatalf("/cluster/metrics does not parse: %v\n%s", err, fed)
	}
	fedExp, err := obs.ParseExposition(strings.NewReader(fed))
	if err != nil {
		t.Fatalf("/cluster/metrics parse: %v", err)
	}
	if nodes := fedExp.LabelValues("node"); len(nodes) != 3 {
		t.Fatalf("/cluster/metrics federates %v, want all of %v", nodes, ids)
	}
	for _, id := range ids {
		if _, ok := fedExp.Value("events_admitted_total", map[string]string{"node": id}); !ok {
			t.Fatalf("no events_admitted_total sample for node %s in federation:\n%s", id, fed)
		}
	}

	// Wait for n2's partition to be mirrored on its follower n3 before
	// killing it, or there is nothing to take over.
	e2etest.Eventually(t, "n2's journal to reach its follower n3", func() bool {
		_, body := daemons["n3"].Get("/cluster/status")
		var st cluster.Status
		if err := json.Unmarshal([]byte(body), &st); err != nil {
			t.Fatalf("cluster status: %v\n%s", err, body)
		}
		for _, p := range st.Peers {
			if p.ID == "n2" && p.Replica != nil && p.Replica.Rules >= 2 {
				return true
			}
		}
		return false
	})

	// SIGKILL the rule-owning victim: no shutdown hooks run.
	daemons["n2"].Kill()

	// The follower must notice the death (2 failed probes at 200ms) and
	// take the partition over.
	e2etest.Eventually(t, "n3 to take n2's partition over", func() bool {
		_, metrics := daemons["n3"].Get("/metrics")
		return strings.Contains(metrics, "cluster_takeovers_total 1")
	})

	// Re-fire everything through a survivor: every rule — including the
	// two the dead node owned — must fire on the surviving nodes.
	pre := firings("n1", "n3")
	e2etest.Eventually(t, "every rule to fire on the survivors after the takeover", func() bool {
		fireAll("n1")
		time.Sleep(200 * time.Millisecond)
		post := firings("n1", "n3")
		for _, id := range ruleIDs {
			if post[id] <= pre[id] {
				return false
			}
		}
		return true
	})

	// The health document of a survivor reports the cluster view: the dead
	// peer down, the takeover counted.
	_, health := daemons["n3"].Get("/healthz")
	var h struct {
		Cluster *cluster.Status `json:"cluster"`
	}
	if err := json.Unmarshal([]byte(health), &h); err != nil {
		t.Fatalf("healthz: %v\n%s", err, health)
	}
	if h.Cluster == nil || h.Cluster.Takeovers != 1 {
		t.Errorf("survivor healthz cluster section = %+v", h.Cluster)
	}
}
