package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"time"

	"repro/internal/obs"
	"repro/internal/store"
)

// --- health probing and takeover ---------------------------------------------------

// probeLoop GETs every peer's /cluster/status on a ticker. A successful
// probe refreshes the peer's advertised vocabulary (replacing what was
// learned at registration time); DownAfter consecutive failures of a peer
// that has been seen alive declare it down, and if this node holds a
// replica of the dead peer's journal, it takes the partition over.
func (n *Node) probeLoop() {
	defer n.wg.Done()
	t := time.NewTicker(n.opts.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-n.stop:
			return
		case <-t.C:
		}
		n.mu.Lock()
		ids := make([]string, 0, len(n.peers))
		for id := range n.peers {
			ids = append(ids, id)
		}
		n.mu.Unlock()
		sort.Strings(ids)
		for _, id := range ids {
			n.probe(id)
		}
	}
}

func (n *Node) probe(id string) {
	n.mu.Lock()
	ps, ok := n.peers[id]
	if !ok {
		n.mu.Unlock()
		return
	}
	url := ps.url
	n.mu.Unlock()

	st, err := n.fetchStatus(url)
	n.mu.Lock()
	if err != nil {
		ps.fails++
		fails, wasUp, seen := ps.fails, ps.up, ps.everSeen
		if fails >= n.opts.DownAfter && ps.up {
			ps.up = false
			n.met.peerUp.With(id).Set(0)
		}
		nowDown := !ps.up
		n.mu.Unlock()
		if wasUp && nowDown {
			n.log.Warn("cluster: peer declared down", "peer", id, "fails", fails)
			if seen {
				n.maybeTakeover(id)
			}
		}
		return
	}
	ps.fails = 0
	ps.lastSeen = time.Now()
	ps.everSeen = true
	if !ps.up {
		n.log.Info("cluster: peer back up", "peer", id)
	}
	ps.up = true
	n.met.peerUp.With(id).Set(1)
	vocab := map[string]bool{}
	for _, term := range st.Vocab {
		vocab[term] = true
	}
	ps.vocab = vocab
	ps.wildcard = st.Wildcard
	ps.vocabKnown = true
	// The probe is authoritative: registration-time hints served their
	// purpose between probes.
	ps.learned = map[string]bool{}
	n.mu.Unlock()
}

func (n *Node) fetchStatus(url string) (*Status, error) {
	resp, err := n.client.Get(url + "/cluster/status")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, err
	}
	return &st, nil
}

// maybeTakeover recovers a dead peer's partition from its mirrored journal:
// every replicated rule is re-registered through the engine's regular
// validation path and every orphaned event re-published — the identical
// two-phase shape as crash recovery (System.Recover), fed from the replica
// instead of the local store. Runs once per peer death.
func (n *Node) maybeTakeover(id string) {
	n.mu.Lock()
	rep := n.replicas[id]
	done := n.takenOver[id]
	if rep == nil || done {
		n.mu.Unlock()
		return
	}
	n.takenOver[id] = true
	n.mu.Unlock()

	tr := n.hub.Traces().Begin("cluster:takeover:"+id, 1)
	start := time.Now()
	stats, err := rep.RecoverTenants(n.hooks.RegisterRecovered, n.hooks.PublishRecovered)
	rules, events := rep.Counts()
	tr.AddSpan(obs.Span{Stage: "takeover", Component: id, Mode: "cluster",
		TuplesIn: rules + events, TuplesOut: stats.Rules + stats.Events,
		Start: start, Duration: time.Since(start), Err: errString(err)})
	tr.Finish("completed")

	n.mu.Lock()
	n.takeovers++
	n.mu.Unlock()
	n.met.takeovers.Inc()
	n.log.Info("cluster: partition taken over", "peer", id,
		"rules", stats.Rules, "events", stats.Events, "skipped", stats.Skipped)
}

// --- journal shipping (primary side) -----------------------------------------------

// shipLoop streams this node's journal to its follower. The stream always
// opens (and re-opens after any inconsistency: follower restart, buffer
// overflow, lost acknowledgement) with a base sync — the live mirror as of
// a sequence number, from Store.ReplicationState — followed by incremental
// frames in sequence order. The follower acknowledges its last applied
// sequence after every batch; shipping resumes from there.
func (n *Node) shipLoop() {
	defer n.wg.Done()
	var (
		pending  []store.RepRecord
		acked    uint64
		needBase = true
	)
	t := time.NewTicker(shipFlush)
	defer t.Stop()
	for {
		select {
		case <-n.stop:
			return
		case r := <-n.recs:
			pending = append(pending, r)
			if len(pending) < 256 {
				continue // keep batching until the flush tick
			}
		case <-t.C:
		}
		if n.repLost.Swap(false) {
			needBase = true
		}
		if needBase {
			frames, seq, err := n.store.ReplicationState()
			if err != nil {
				continue
			}
			got, err := n.postJournal(true, seq, flatten(frames))
			if err != nil || got != seq {
				continue // follower unreachable or refused; retry next tick
			}
			acked = seq
			needBase = false
			n.met.replicated.Add(int64(len(frames)))
		}
		// Drop what the follower already has.
		for len(pending) > 0 && pending[0].Seq <= acked {
			pending = pending[1:]
		}
		if len(pending) == 0 {
			continue
		}
		if pending[0].Seq != acked+1 {
			needBase = true // records were lost between base and buffer
			continue
		}
		frames := make([][]byte, len(pending))
		for i, r := range pending {
			frames[i] = r.Frame
		}
		got, err := n.postJournal(false, pending[0].Seq, flatten(frames))
		if err != nil {
			continue // keep pending, retry on the next tick
		}
		if got > acked {
			n.met.replicated.Add(int64(got - acked))
			acked = got
		}
		if got != pending[len(pending)-1].Seq {
			needBase = true // follower lost state mid-stream
		}
	}
}

func flatten(frames [][]byte) []byte {
	return bytes.Join(frames, nil)
}

// postJournal ships one batch to the follower's /cluster/journal and
// returns the follower's acknowledged sequence.
func (n *Node) postJournal(full bool, seq uint64, body []byte) (uint64, error) {
	n.mu.Lock()
	ps := n.peers[n.follower]
	n.mu.Unlock()
	if ps == nil {
		return 0, fmt.Errorf("cluster: no follower %q", n.follower)
	}
	url := ps.url + "/cluster/journal?from=" + n.id
	if full {
		url += fmt.Sprintf("&full=1&seq=%d", seq)
	} else {
		url += fmt.Sprintf("&first=%d", seq)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	req.Header.Set(OriginHeader, n.id)
	resp, err := n.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("cluster: follower answered HTTP %d", resp.StatusCode)
	}
	var ack struct {
		Acked uint64 `json:"acked"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		return 0, err
	}
	return ack.Acked, nil
}

// --- HTTP handlers (both sides) ----------------------------------------------------

// JournalHandler is POST /cluster/journal: the replication ingest endpoint.
// The body is a batch of journal frames; query parameters say where it
// belongs: from=<primary id>, and either full=1&seq=N (a base sync as of
// sequence N) or first=N (incremental frames numbered consecutively from
// N). The response acknowledges the replica's last applied sequence —
// after a gap or a torn batch the primary reads it and resends or re-bases.
func (n *Node) JournalHandler(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST journal frames", http.StatusMethodNotAllowed)
		return
	}
	q := r.URL.Query()
	from := q.Get("from")
	if from == "" || from == n.id {
		http.Error(w, "journal batch needs a valid from=<peer id>", http.StatusBadRequest)
		return
	}
	n.mu.Lock()
	rep := n.replicas[from]
	if rep == nil {
		rep = store.NewReplica()
		n.replicas[from] = rep
	}
	n.mu.Unlock()

	var (
		last uint64
		err  error
	)
	if q.Get("full") == "1" {
		seq, perr := parseSeq(q.Get("seq"))
		if perr != nil {
			http.Error(w, perr.Error(), http.StatusBadRequest)
			return
		}
		last, err = rep.ApplyBase(seq, r.Body)
	} else {
		first, perr := parseSeq(q.Get("first"))
		if perr != nil {
			http.Error(w, perr.Error(), http.StatusBadRequest)
			return
		}
		last, err = rep.Apply(first, r.Body)
	}
	if err != nil {
		// Gaps and torn batches are protocol business as usual: the
		// acknowledgement below tells the primary where to resume.
		n.log.Warn("cluster: replication batch incomplete", "from", from, "error", err.Error())
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(struct {
		Acked uint64 `json:"acked"`
	}{last})
}

func parseSeq(s string) (uint64, error) {
	var v uint64
	if _, err := fmt.Sscanf(s, "%d", &v); err != nil {
		return 0, fmt.Errorf("cluster: bad sequence %q", s)
	}
	return v, nil
}

// --- status ------------------------------------------------------------------------

// ReplicaStatus describes one mirrored peer journal held by this node.
type ReplicaStatus struct {
	Rules   int    `json:"rules"`
	Events  int    `json:"events"`
	LastSeq uint64 `json:"last_seq"`
}

// PeerStatus is this node's probed view of one peer.
type PeerStatus struct {
	ID        string         `json:"id"`
	URL       string         `json:"url"`
	Up        bool           `json:"up"`
	Fails     int            `json:"fails,omitempty"`
	LastSeen  time.Time      `json:"last_seen,omitempty"`
	Replica   *ReplicaStatus `json:"replica,omitempty"`
	TakenOver bool           `json:"taken_over,omitempty"`
}

// Status is the GET /cluster/status document (and the cluster section of
// /healthz): the node's identity, what it owns and advertises, where it
// replicates, and its view of every peer. Peers probe each other with it —
// Vocab/Wildcard drive event routing.
type Status struct {
	Node        string       `json:"node"`
	Rules       []string     `json:"rules"`
	Vocab       []string     `json:"vocab"`
	Wildcard    bool         `json:"wildcard"`
	ReplicateTo string       `json:"replicate_to,omitempty"`
	Takeovers   int          `json:"takeovers"`
	Peers       []PeerStatus `json:"peers"`
}

// Status snapshots this node's cluster view.
func (n *Node) Status() Status {
	st := Status{Node: n.id, ReplicateTo: n.Follower()}
	if n.hooks.Local != nil {
		st.Rules = n.hooks.Local.Rules()
		sort.Strings(st.Rules)
		st.Vocab, st.Wildcard = n.hooks.Local.Vocabulary()
	}
	n.mu.Lock()
	st.Takeovers = n.takeovers
	for _, ps := range n.peers {
		p := PeerStatus{ID: ps.id, URL: ps.url, Up: ps.up, Fails: ps.fails, LastSeen: ps.lastSeen, TakenOver: n.takenOver[ps.id]}
		if rep := n.replicas[ps.id]; rep != nil {
			rules, events := rep.Counts()
			p.Replica = &ReplicaStatus{Rules: rules, Events: events, LastSeq: rep.LastSeq()}
		}
		st.Peers = append(st.Peers, p)
	}
	n.mu.Unlock()
	sort.Slice(st.Peers, func(i, j int) bool { return st.Peers[i].ID < st.Peers[j].ID })
	return st
}

// StatusHandler is GET /cluster/status.
func (n *Node) StatusHandler(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET the cluster status", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(n.Status())
}
