package store

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"repro/internal/xmltree"
)

// Journal replication: the primary side of a replicated partition taps its
// journal through a replication sink — every appended record is handed out
// as a framed byte slice with a monotonically increasing stream sequence —
// and a follower folds those frames into a Replica, an in-memory mirror of
// the primary's live state. When the primary dies, the follower replays the
// Replica through the same register/publish callbacks that crash recovery
// uses (System.Recover), taking the partition over. The wire format is the
// journal frame format itself (length+CRC32 header, JSON record payload —
// see journal.go and docs/CLUSTERING.md), so a replication stream is
// literally the journal shipped frame by frame.

// RepRecord is one journal record in the replication stream: the framed
// bytes exactly as they were appended to the journal, plus the stream
// sequence assigned at append time. Sequences are per-primary, start at 1,
// and never reset while the store is open.
type RepRecord struct {
	Seq   uint64
	Frame []byte
}

// ErrReplicaGap reports an Apply batch that starts beyond the replica's
// next expected sequence: records were lost in transit and the primary
// must rewind to LastSeq+1 or send a fresh base state.
var ErrReplicaGap = errors.New("store: replication gap")

// ErrTornBatch reports a batch whose byte stream ended mid-frame or failed
// its checksum: the good prefix was applied, the rest must be resent.
var ErrTornBatch = errors.New("store: torn replication batch")

// SetReplicationSink installs the replication tap: from now on every
// journal append is also handed to sink, in append order, with its stream
// sequence. The sink runs under the store lock and must not block; the
// cluster layer hands the record to a buffered channel and ships
// asynchronously. A nil store or nil sink is a no-op.
func (s *Store) SetReplicationSink(sink func(RepRecord)) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.repSink = sink
	s.mu.Unlock()
}

// ReplicationState atomically captures the live mirror as a base batch of
// framed records — one register record per live rule, one event record per
// pending event — together with the stream sequence the batch is current
// as of. A follower that applies the batch with Replica.ApplyBase(seq, ...)
// is positioned to consume incremental records from seq+1 on.
func (s *Store) ReplicationState() (frames [][]byte, seq uint64, err error) {
	if s == nil {
		return nil, 0, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, id := range s.ruleOrder {
		r := s.rules[id]
		f, err := encodeRecord(record{Kind: KindRegister, Time: r.Registered, Rule: r.ID, Doc: r.Doc, Tenant: r.Tenant})
		if err != nil {
			return nil, 0, fmt.Errorf("store: replication state: %w", err)
		}
		frames = append(frames, f)
	}
	for _, id := range s.eventOrderLocked() {
		e := s.events[id]
		f, err := encodeRecord(record{Kind: KindEvent, Time: e.Accepted, Event: e.ID, Doc: e.Doc, Tenant: e.Tenant})
		if err != nil {
			return nil, 0, fmt.Errorf("store: replication state: %w", err)
		}
		frames = append(frames, f)
	}
	return frames, s.repSeq, nil
}

// Replica is the follower-side mirror of one remote primary's journal.
// Frames applied in stream order reconstruct exactly the state the
// primary's own Open would: live rules and accepted-but-unacked events.
// Safe for concurrent use.
type Replica struct {
	mu        sync.Mutex
	lastSeq   uint64
	applied   int
	rules     map[string]ruleEntry
	ruleOrder []string
	events    map[uint64]eventEntry
}

// NewReplica returns an empty replica expecting sequence 1 (or a base
// batch).
func NewReplica() *Replica {
	return &Replica{rules: map[string]ruleEntry{}, events: map[uint64]eventEntry{}}
}

// LastSeq returns the stream sequence of the last applied record — the
// value the follower acknowledges, and where the primary resumes after a
// follower restart.
func (r *Replica) LastSeq() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lastSeq
}

// Counts returns the mirrored live state: rules registered and events
// pending takeover replay.
func (r *Replica) Counts() (rules, events int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.rules), len(r.events)
}

// ApplyBase resets the mirror and folds a full base batch (from
// Store.ReplicationState) into it, positioning the replica at seq.
// Incremental batches then continue from seq+1.
func (r *Replica) ApplyBase(seq uint64, frames io.Reader) (uint64, error) {
	r.mu.Lock()
	r.rules = map[string]ruleEntry{}
	r.ruleOrder = nil
	r.events = map[uint64]eventEntry{}
	r.lastSeq = 0
	r.mu.Unlock()
	// Base frames carry no individual sequences: the whole batch is the
	// state "as of seq".
	if _, err := r.fold(0, frames, false); err != nil {
		return r.LastSeq(), err
	}
	r.mu.Lock()
	r.lastSeq = seq
	r.mu.Unlock()
	return seq, nil
}

// Apply folds an incremental batch of concatenated frames into the mirror.
// first is the stream sequence of the batch's first frame; frames are
// numbered consecutively from there. Frames at or below LastSeq are
// skipped without effect (a primary resending after a lost ack is
// harmless), a batch starting beyond LastSeq+1 returns ErrReplicaGap with
// nothing applied, and a batch whose bytes end mid-frame applies its good
// prefix and returns ErrTornBatch. The returned sequence is the new
// LastSeq — the follower's acknowledgement either way.
func (r *Replica) Apply(first uint64, frames io.Reader) (uint64, error) {
	if first > r.LastSeq()+1 {
		return r.LastSeq(), fmt.Errorf("%w: batch starts at %d, expected %d", ErrReplicaGap, first, r.LastSeq()+1)
	}
	return r.fold(first, frames, true)
}

// fold reads frames and applies them. When sequenced, frame i carries
// sequence first+i and duplicates are skipped; otherwise every frame is
// applied (base batches).
func (r *Replica) fold(first uint64, frames io.Reader, sequenced bool) (uint64, error) {
	br := bufio.NewReader(frames)
	seq := first
	for i := 0; ; i++ {
		payload, err := readFrame(br)
		if err == io.EOF {
			break
		}
		if err != nil {
			return r.LastSeq(), fmt.Errorf("%w: frame %d: %v", ErrTornBatch, i, err)
		}
		if sequenced {
			seq = first + uint64(i)
		}
		r.mu.Lock()
		if sequenced && seq <= r.lastSeq {
			r.mu.Unlock() // duplicate: already applied, skip idempotently
			continue
		}
		rec, err := decodeRecord(payload)
		if err == nil {
			r.applyLocked(rec)
			r.applied++
			if sequenced {
				r.lastSeq = seq
			}
		}
		r.mu.Unlock()
		if err != nil {
			// A frame that passed its checksum but does not decode is a
			// primary-side bug, not a transport error; skip it but keep the
			// stream position moving so replication does not wedge.
			r.mu.Lock()
			if sequenced {
				r.lastSeq = seq
			}
			r.mu.Unlock()
		}
	}
	return r.LastSeq(), nil
}

func decodeRecord(payload []byte) (record, error) {
	var rec record
	err := json.Unmarshal(payload, &rec)
	return rec, err
}

// applyLocked folds one record into the mirror with the same idempotent
// semantics as Store.apply. Caller holds r.mu.
func (r *Replica) applyLocked(rec record) {
	switch rec.Kind {
	case KindRegister:
		k := ruleKey(rec.Tenant, rec.Rule)
		if _, live := r.rules[k]; !live {
			r.ruleOrder = append(r.ruleOrder, k)
		}
		r.rules[k] = ruleEntry{ID: rec.Rule, Doc: rec.Doc, Registered: rec.Time, Tenant: rec.Tenant}
	case KindUnregister:
		k := ruleKey(rec.Tenant, rec.Rule)
		if _, live := r.rules[k]; live {
			delete(r.rules, k)
			for i, id := range r.ruleOrder {
				if id == k {
					r.ruleOrder = append(r.ruleOrder[:i], r.ruleOrder[i+1:]...)
					break
				}
			}
		}
	case KindEvent:
		r.events[rec.Event] = eventEntry{ID: rec.Event, Doc: rec.Doc, Accepted: rec.Time, Tenant: rec.Tenant}
	case KindEventAck:
		delete(r.events, rec.Event)
	}
}

// RecoverTenants replays the mirror through the caller's registration and
// publication paths — the same two-phase shape as Store.RecoverTenants:
// rules in registration order first, then orphaned events, each with the
// tenant it was journaled under, skipping records that fail to parse or
// register. The cluster layer calls this on takeover when the replica's
// primary is declared dead, so each tenant's rules and events land in
// that tenant's space on the surviving node. The mirror is left intact so
// a status endpoint can keep reporting what was taken over.
func (r *Replica) RecoverTenants(
	register func(tenant, id string, doc *xmltree.Node, registered time.Time) error,
	publish func(tenant string, doc *xmltree.Node) error,
) (RecoveryStats, error) {
	r.mu.Lock()
	rules := make([]ruleEntry, 0, len(r.ruleOrder))
	for _, id := range r.ruleOrder {
		rules = append(rules, r.rules[id])
	}
	eventIDs := make([]uint64, 0, len(r.events))
	for id := range r.events {
		eventIDs = append(eventIDs, id)
	}
	sort.Slice(eventIDs, func(i, j int) bool { return eventIDs[i] < eventIDs[j] })
	events := make([]eventEntry, 0, len(eventIDs))
	for _, id := range eventIDs {
		events = append(events, r.events[id])
	}
	r.mu.Unlock()

	var stats RecoveryStats
	for _, e := range rules {
		doc, err := xmltree.ParseString(e.Doc)
		if err == nil {
			err = register(e.Tenant, e.ID, doc, e.Registered)
		}
		if err != nil {
			stats.Skipped++
			continue
		}
		stats.Rules++
	}
	for _, e := range events {
		doc, err := xmltree.ParseString(e.Doc)
		if err == nil {
			err = publish(e.Tenant, doc)
		}
		if err != nil {
			stats.Skipped++
			continue
		}
		stats.Events++
	}
	return stats, nil
}
