package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/xmltree"
)

// FsyncPolicy controls when journal appends are forced to stable storage.
type FsyncPolicy string

const (
	// FsyncAlways syncs after every append: no accepted record is ever
	// lost, at the cost of one fsync per record.
	FsyncAlways FsyncPolicy = "always"
	// FsyncInterval syncs on a background ticker (Options.FsyncInterval):
	// at most one interval of accepted records is exposed to power loss.
	// Process crashes (SIGKILL) lose nothing under any policy — appends
	// reach the OS page cache before the call returns.
	FsyncInterval FsyncPolicy = "interval"
	// FsyncNever leaves syncing to the operating system.
	FsyncNever FsyncPolicy = "never"
)

// ParseFsyncPolicy validates a policy string (e.g. an -fsync flag value).
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch FsyncPolicy(s) {
	case FsyncAlways, FsyncInterval, FsyncNever:
		return FsyncPolicy(s), nil
	case "":
		return FsyncInterval, nil
	}
	return "", fmt.Errorf("store: unknown fsync policy %q (want always, interval or never)", s)
}

// DefaultSnapshotEvery is how many journal records accumulate before the
// store snapshots and compacts.
const DefaultSnapshotEvery = 1024

// DefaultFsyncInterval is the background sync cadence under FsyncInterval.
const DefaultFsyncInterval = 100 * time.Millisecond

// Journal and snapshot file names inside the data directory.
const (
	journalFile  = "journal.eca"
	snapshotFile = "snapshot.eca"
)

// Options configures Open.
type Options struct {
	// Fsync is the journal sync policy; FsyncInterval when empty.
	Fsync FsyncPolicy
	// FsyncInterval is the background sync cadence under FsyncInterval;
	// DefaultFsyncInterval when zero.
	FsyncInterval time.Duration
	// SnapshotEvery triggers snapshot + compaction after this many journal
	// records; DefaultSnapshotEvery when zero, negative disables automatic
	// snapshots (graceful Close still compacts).
	SnapshotEvery int
	// Obs receives store metrics and recovery trace spans; nil runs the
	// store uninstrumented.
	Obs *obs.Hub
	// Log receives structured warnings (skipped records, torn tails); nil
	// disables logging.
	Log *obs.Logger
}

// ruleEntry is the mirrored live state of one registered rule.
type ruleEntry struct {
	ID         string    `json:"id"`
	Doc        string    `json:"doc"`
	Registered time.Time `json:"registered"`
	Tenant     string    `json:"tenant,omitempty"`
}

// eventEntry is one accepted event not yet dispatched into the engine.
type eventEntry struct {
	ID       uint64    `json:"id"`
	Doc      string    `json:"doc"`
	Accepted time.Time `json:"accepted"`
	Tenant   string    `json:"tenant,omitempty"`
}

// ruleKey is the mirror's map key for one rule: rule ids are assigned per
// tenant space (two tenants each own a "rule-1"), so the key composes the
// tenant's wire form with the id. The default tenant keys by bare id,
// matching every record a pre-tenant journal can contain. \x00 cannot
// appear in a tenant slug, so keys never collide across tenants.
func ruleKey(tenant, id string) string {
	if tenant == "" {
		return id
	}
	return tenant + "\x00" + id
}

// snapshotPayload is the snapshot file's JSON body (wrapped in one frame).
type snapshotPayload struct {
	Kind     string       `json:"kind"` // KindSnapshot
	Time     time.Time    `json:"time"`
	EventSeq uint64       `json:"event_seq"`
	Rules    []ruleEntry  `json:"rules"`
	Events   []eventEntry `json:"events"`
}

// metrics are the store's observability instruments; all nil-safe.
type metrics struct {
	records   *obs.CounterVec // store_journal_records_total{kind}
	errs      *obs.Counter    // store_journal_errors_total
	fsyncSec  *obs.Histogram  // store_fsync_seconds
	snapSec   *obs.Histogram  // store_snapshot_seconds
	recRules  *obs.Counter    // store_recovery_rules_total
	recEvents *obs.Counter    // store_recovery_events_total
	recSkip   *obs.Counter    // store_recovery_skipped_total
}

func newMetrics(h *obs.Hub) metrics {
	r := h.Metrics()
	return metrics{
		records:   r.CounterVec("store_journal_records_total", "Journal records appended, by record kind.", "kind"),
		errs:      r.Counter("store_journal_errors_total", "Journal append or sync failures."),
		fsyncSec:  r.Histogram("store_fsync_seconds", "Journal fsync latency.", nil),
		snapSec:   r.Histogram("store_snapshot_seconds", "Snapshot write + journal compaction latency.", nil),
		recRules:  r.Counter("store_recovery_rules_total", "Rules re-registered during crash recovery."),
		recEvents: r.Counter("store_recovery_events_total", "Orphaned events re-enqueued during crash recovery."),
		recSkip:   r.Counter("store_recovery_skipped_total", "Journal/snapshot records skipped during recovery (parse or re-register failure)."),
	}
}

// Store is the durable rule/event store. Safe for concurrent use. All
// write methods are no-ops on a nil *Store, so callers may hold one
// unconditionally.
type Store struct {
	dir    string
	policy FsyncPolicy
	every  int
	met    metrics
	log    *obs.Logger
	hub    *obs.Hub

	mu             sync.Mutex
	journal        *os.File
	journalRecords int   // records in the journal since the last snapshot
	journalBytes   int64 // journal file size
	needsSync      bool
	eventSeq       uint64
	rules          map[string]ruleEntry
	ruleOrder      []string // registration order of live rules
	events         map[uint64]eventEntry
	lastSnapshot   time.Time
	recovering     bool
	closed         bool

	// Replication tap (see replication.go): repSeq numbers every appended
	// record; repSink, when set, receives each framed record for shipping
	// to a follower.
	repSeq  uint64
	repSink func(RepRecord)

	// frames is the reused buffer an append frames its records into
	// before the one write that journals them.
	frames []byte

	// recovered* freeze what Open reconstructed, for Health and tests.
	recoveredRules   int
	recoveredEvents  int
	recoveredSkipped int
	openSkipped      int // replay records skipped during Open

	trace *obs.Instance // recovery trace instance, finished by Recover/Close

	stopSync chan struct{}
	syncDone sync.WaitGroup
}

// Open opens (creating if necessary) the durable store rooted at dir: it
// loads the latest snapshot, replays the journal tail into the in-memory
// mirror, truncates any torn final record, and leaves the journal
// positioned for appends. The reconstructed state is exposed through
// RecoveredRules/PendingEvents until Recover replays it into an engine.
func Open(dir string, o Options) (*Store, error) {
	if o.Fsync == "" {
		o.Fsync = FsyncInterval
	}
	if _, err := ParseFsyncPolicy(string(o.Fsync)); err != nil {
		return nil, err
	}
	if o.FsyncInterval <= 0 {
		o.FsyncInterval = DefaultFsyncInterval
	}
	if o.SnapshotEvery == 0 {
		o.SnapshotEvery = DefaultSnapshotEvery
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{
		dir:      dir,
		policy:   o.Fsync,
		every:    o.SnapshotEvery,
		met:      newMetrics(o.Obs),
		log:      o.Log,
		hub:      o.Obs,
		rules:    map[string]ruleEntry{},
		events:   map[uint64]eventEntry{},
		stopSync: make(chan struct{}),
	}
	s.trace = o.Obs.Traces().Begin("store", 4)

	snapStart := time.Now()
	s.loadSnapshot()
	s.trace.AddSpan(obs.Span{Stage: "store", Component: "snapshot-load", Mode: "store",
		TuplesOut: len(s.rules) + len(s.events), Start: snapStart, Duration: time.Since(snapStart)})

	replayStart := time.Now()
	replayed, err := s.openJournal()
	if err != nil {
		return nil, err
	}
	s.trace.AddSpan(obs.Span{Stage: "store", Component: "journal-replay", Mode: "store",
		TuplesIn: replayed, TuplesOut: len(s.rules) + len(s.events), Start: replayStart, Duration: time.Since(replayStart)})

	if s.policy == FsyncInterval {
		s.syncDone.Add(1)
		go s.syncLoop(o.FsyncInterval)
	}
	return s, nil
}

// loadSnapshot reads the snapshot file into the mirror. A missing file is
// a fresh store; a torn or unparsable snapshot is logged, metered and
// skipped — recovery then proceeds from the journal alone.
func (s *Store) loadSnapshot() {
	f, err := os.Open(filepath.Join(s.dir, snapshotFile))
	if err != nil {
		if !errors.Is(err, os.ErrNotExist) {
			s.warn("snapshot unreadable, recovering from journal only", "error", err.Error())
			s.met.recSkip.Inc()
			s.openSkipped++
		}
		return
	}
	defer f.Close()
	payload, err := readFrame(bufio.NewReader(f))
	if err != nil {
		s.warn("snapshot torn or corrupt, recovering from journal only", "error", err.Error())
		s.met.recSkip.Inc()
		s.openSkipped++
		return
	}
	var snap snapshotPayload
	if err := json.Unmarshal(payload, &snap); err != nil || snap.Kind != KindSnapshot {
		s.warn("snapshot payload invalid, recovering from journal only", "error", fmt.Sprint(err))
		s.met.recSkip.Inc()
		s.openSkipped++
		return
	}
	s.eventSeq = snap.EventSeq
	for _, r := range snap.Rules {
		k := ruleKey(r.Tenant, r.ID)
		s.rules[k] = r
		s.ruleOrder = append(s.ruleOrder, k)
	}
	for _, e := range snap.Events {
		s.events[e.ID] = e
	}
	s.lastSnapshot = snap.Time
}

// openJournal replays the journal into the mirror, truncates any torn
// tail, and leaves the file open for appending. Returns the number of
// records replayed.
func (s *Store) openJournal() (int, error) {
	path := filepath.Join(s.dir, journalFile)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	br := bufio.NewReader(f)
	var good int64
	replayed := 0
	for {
		payload, err := readFrame(br)
		if err != nil {
			if errors.Is(err, errTorn) {
				s.warn("torn journal tail discarded", "offset", good, "error", err.Error())
			}
			break
		}
		good += int64(frameHeaderSize + len(payload))
		replayed++
		var rec record
		if err := json.Unmarshal(payload, &rec); err != nil {
			s.warn("unparsable journal record skipped", "error", err.Error())
			s.met.recSkip.Inc()
			s.openSkipped++
			continue
		}
		s.apply(rec)
	}
	if err := f.Truncate(good); err != nil {
		f.Close()
		return 0, fmt.Errorf("store: truncating torn journal tail: %w", err)
	}
	if _, err := f.Seek(good, 0); err != nil {
		f.Close()
		return 0, fmt.Errorf("store: %w", err)
	}
	s.journal = f
	s.journalRecords = replayed
	s.journalBytes = good
	return replayed, nil
}

// apply folds one journal record into the mirror. Duplicate registers
// overwrite (last write wins), unregisters of unknown rules and acks of
// unknown events are no-ops — replay is idempotent.
func (s *Store) apply(rec record) {
	switch rec.Kind {
	case KindRegister:
		k := ruleKey(rec.Tenant, rec.Rule)
		if _, live := s.rules[k]; !live {
			s.ruleOrder = append(s.ruleOrder, k)
		}
		s.rules[k] = ruleEntry{ID: rec.Rule, Doc: rec.Doc, Registered: rec.Time, Tenant: rec.Tenant}
	case KindUnregister:
		k := ruleKey(rec.Tenant, rec.Rule)
		if _, live := s.rules[k]; live {
			delete(s.rules, k)
			s.dropOrder(k)
		}
	case KindEvent:
		if rec.Event > s.eventSeq {
			s.eventSeq = rec.Event
		}
		s.events[rec.Event] = eventEntry{ID: rec.Event, Doc: rec.Doc, Accepted: rec.Time, Tenant: rec.Tenant}
	case KindEventAck:
		delete(s.events, rec.Event)
	default:
		s.warn("unknown journal record kind skipped", "kind", rec.Kind)
		s.met.recSkip.Inc()
		s.openSkipped++
	}
}

func (s *Store) dropOrder(id string) {
	for i, r := range s.ruleOrder {
		if r == id {
			s.ruleOrder = append(s.ruleOrder[:i], s.ruleOrder[i+1:]...)
			return
		}
	}
}

// --- runtime appends ---------------------------------------------------------------

// RuleRegistered journals a successful rule registration in a tenant's
// rule set (wire form: the empty string is the default tenant, whose
// records carry no tenant). doc is the full ECA-ML rule document; a nil
// doc (a rule built programmatically rather than parsed) cannot be made
// durable and is logged and skipped. Implements the engine's Journal hook.
func (s *Store) RuleRegistered(tenant, id string, doc *xmltree.Node, at time.Time) {
	if s == nil {
		return
	}
	if doc == nil {
		s.warn("rule has no source document, not journaled", "rule", id)
		s.met.errs.Inc()
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.recovering || s.closed {
		return
	}
	k := ruleKey(tenant, id)
	if _, live := s.rules[k]; !live {
		s.ruleOrder = append(s.ruleOrder, k)
	}
	text := doc.String()
	s.rules[k] = ruleEntry{ID: id, Doc: text, Registered: at, Tenant: tenant}
	s.appendLocked(record{Kind: KindRegister, Time: at, Rule: id, Doc: text, Tenant: tenant})
}

// RuleUnregistered journals a rule withdrawal from a tenant's rule set.
// Implements the engine's Journal hook.
func (s *Store) RuleUnregistered(tenant, id string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.recovering || s.closed {
		return
	}
	k := ruleKey(tenant, id)
	delete(s.rules, k)
	s.dropOrder(k)
	s.appendLocked(record{Kind: KindUnregister, Time: time.Now(), Rule: id, Tenant: tenant})
}

// AppendEventBatchTenant journals a batch of accepted atomic events for
// one tenant, serialized with String; see AppendEventTexts. A nil doc gets
// id 0 and is not journaled.
func (s *Store) AppendEventBatchTenant(tenant string, docs []*xmltree.Node) ([]uint64, error) {
	if s == nil || len(docs) == 0 {
		return make([]uint64, len(docs)), nil
	}
	texts := make([]string, len(docs))
	for i, doc := range docs {
		if doc != nil {
			texts[i] = doc.String()
		}
	}
	return s.AppendEventTexts(tenant, texts)
}

// AppendEventTexts journals a batch of accepted atomic events for one
// tenant, each given as the XML text it was received in, and returns one
// store-local id per event, in order. This is the durability half of
// batched admission: the whole batch costs one lock acquisition, one
// write and, under FsyncAlways, one fsync. Either every event is journaled
// or, on error, none is. Batch envelopes are single-tenant, so one tenant
// per call suffices; the tenant (wire form, "" = default) rides on each
// event record so recovery republishes it into the right space. An empty
// text gets id 0 and is not journaled. Ids are acknowledged with AckEvents
// once the batch has been dispatched.
func (s *Store) AppendEventTexts(tenant string, texts []string) ([]uint64, error) {
	ids := make([]uint64, len(texts))
	if s == nil || len(texts) == 0 {
		return ids, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.recovering || s.closed {
		return ids, nil
	}
	now := time.Now()
	s.frames = s.frames[:0]
	n := 0
	for i, text := range texts {
		if text == "" {
			continue
		}
		ids[i] = s.eventSeq + uint64(n) + 1
		if err := s.appendFrameLocked(record{Kind: KindEvent, Time: now, Event: ids[i], Doc: text, Tenant: tenant}); err != nil {
			return nil, err
		}
		n++
	}
	if err := s.writeFramesLocked(KindEvent, n); err != nil {
		return nil, err
	}
	s.eventSeq += uint64(n)
	for i, text := range texts {
		if ids[i] != 0 {
			s.events[ids[i]] = eventEntry{ID: ids[i], Doc: text, Accepted: now, Tenant: tenant}
		}
	}
	if s.policy == FsyncAlways {
		s.syncLocked()
	}
	s.maybeSnapshotLocked()
	return ids, nil
}

// AckEvents journals the dispatch acknowledgement for a whole admitted
// batch under one lock acquisition and with one write. Zero ids (nil
// store, shed events) are skipped.
func (s *Store) AckEvents(ids []uint64) {
	if s == nil || len(ids) == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.recovering || s.closed {
		return
	}
	s.frames = s.frames[:0]
	n := 0
	for _, id := range ids {
		if id == 0 {
			continue
		}
		delete(s.events, id)
		s.appendFrameLocked(record{Kind: KindEventAck, Event: id}) // a zero time always encodes
		n++
	}
	if n == 0 || s.writeFramesLocked(KindEventAck, n) != nil {
		return
	}
	if s.policy == FsyncAlways {
		s.syncLocked()
	}
	s.maybeSnapshotLocked()
}

// appendLocked frames and writes one record, applies the fsync policy and
// triggers snapshot + compaction when the journal has grown past the
// configured threshold. Caller holds s.mu.
func (s *Store) appendLocked(rec record) error {
	s.frames = s.frames[:0]
	if err := s.appendFrameLocked(rec); err != nil {
		return err
	}
	if err := s.writeFramesLocked(rec.Kind, 1); err != nil {
		return err
	}
	if s.policy == FsyncAlways {
		s.syncLocked()
	}
	s.maybeSnapshotLocked()
	return nil
}

// appendFrameLocked appends rec's frame to s.frames; an encode failure is
// metered and logged. Caller holds s.mu.
func (s *Store) appendFrameLocked(rec record) error {
	var err error
	if s.frames, err = appendRecordFrame(s.frames, &rec); err != nil {
		s.met.errs.Inc()
		s.warn("journal encode failed", "kind", rec.Kind, "error", err.Error())
	}
	return err
}

// writeFramesLocked writes the n frames of one record kind in s.frames to
// the journal with a single write and hands each to the replication sink.
// A failed write is cut back off the journal, so a later append never
// lands behind a torn frame. Caller holds s.mu.
func (s *Store) writeFramesLocked(kind string, n int) error {
	if n == 0 {
		return nil
	}
	defer s.trimFrames()
	if _, err := s.journal.Write(s.frames); err != nil {
		s.met.errs.Inc()
		s.warn("journal append failed", "kind", kind, "error", err.Error())
		if terr := s.journal.Truncate(s.journalBytes); terr != nil {
			s.warn("journal not cut back after a failed append", "error", terr.Error())
		} else if _, serr := s.journal.Seek(s.journalBytes, 0); serr != nil {
			s.warn("journal not cut back after a failed append", "error", serr.Error())
		}
		return err
	}
	s.journalRecords += n
	s.journalBytes += int64(len(s.frames))
	s.needsSync = true
	s.met.records.With(kind).Add(int64(n))
	for off := 0; off < len(s.frames); {
		end := off + frameHeaderSize + int(binary.LittleEndian.Uint32(s.frames[off:]))
		s.repSeq++
		if s.repSink != nil {
			// The sink keeps the frame after s.frames is reused.
			s.repSink(RepRecord{Seq: s.repSeq, Frame: bytes.Clone(s.frames[off:end])})
		}
		off = end
	}
	return nil
}

// maxRetainedFrames bounds the frame buffer kept between appends: one
// oversized batch does not pin its buffer for the life of the store.
const maxRetainedFrames = 1 << 20

func (s *Store) trimFrames() {
	if cap(s.frames) > maxRetainedFrames {
		s.frames = nil
	}
}

// maybeSnapshotLocked snapshots + compacts when the journal has grown past
// the configured record threshold. Caller holds s.mu.
func (s *Store) maybeSnapshotLocked() {
	if s.every > 0 && s.journalRecords >= s.every {
		if err := s.snapshotLocked(); err != nil {
			s.warn("automatic snapshot failed", "error", err.Error())
		}
	}
}

// syncLocked fsyncs the journal, timing the call. Caller holds s.mu.
func (s *Store) syncLocked() {
	if !s.needsSync || s.journal == nil {
		return
	}
	start := time.Now()
	if err := s.journal.Sync(); err != nil {
		s.met.errs.Inc()
		s.warn("journal fsync failed", "error", err.Error())
		return
	}
	s.needsSync = false
	s.met.fsyncSec.Observe(obs.Since(start))
}

func (s *Store) syncLoop(interval time.Duration) {
	defer s.syncDone.Done()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.mu.Lock()
			if !s.closed {
				s.syncLocked()
			}
			s.mu.Unlock()
		case <-s.stopSync:
			return
		}
	}
}

// --- snapshot + compaction ---------------------------------------------------------

// Snapshot writes the live mirror to the snapshot file and compacts the
// journal to empty, bounding the next boot's replay cost by live state.
func (s *Store) Snapshot() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("store: closed")
	}
	return s.snapshotLocked()
}

func (s *Store) snapshotLocked() error {
	start := time.Now()
	snap := snapshotPayload{Kind: KindSnapshot, Time: start, EventSeq: s.eventSeq}
	for _, id := range s.ruleOrder {
		snap.Rules = append(snap.Rules, s.rules[id])
	}
	for _, id := range s.eventOrderLocked() {
		snap.Events = append(snap.Events, s.events[id])
	}
	payload, err := json.Marshal(snap)
	if err != nil {
		return fmt.Errorf("store: snapshot marshal: %w", err)
	}
	tmp := filepath.Join(s.dir, snapshotFile+".tmp")
	final := filepath.Join(s.dir, snapshotFile)
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if _, err := f.Write(encodeFrame(payload)); err != nil {
		f.Close()
		return fmt.Errorf("store: snapshot write: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("store: snapshot sync: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp, final); err != nil {
		return fmt.Errorf("store: snapshot rename: %w", err)
	}
	// The snapshot now owns everything the journal said; compact. A crash
	// between the rename and the truncate merely replays records already
	// folded into the snapshot — apply() is idempotent.
	if err := s.journal.Truncate(0); err != nil {
		return fmt.Errorf("store: journal compaction: %w", err)
	}
	if _, err := s.journal.Seek(0, 0); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.syncDir()
	s.journalRecords = 0
	s.journalBytes = 0
	s.needsSync = false
	s.lastSnapshot = start
	s.met.snapSec.Observe(obs.Since(start))
	s.info("snapshot written, journal compacted",
		"rules", len(snap.Rules), "pending_events", len(snap.Events), "seconds", time.Since(start).Seconds())
	return nil
}

func (s *Store) eventOrderLocked() []uint64 {
	ids := make([]uint64, 0, len(s.events))
	for id := range s.events {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// syncDir fsyncs the data directory so renames and truncates are durable.
func (s *Store) syncDir() {
	d, err := os.Open(s.dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}

// --- recovery ----------------------------------------------------------------------

// RecoveryStats summarizes one Recover pass.
type RecoveryStats struct {
	// Rules were re-registered into the engine.
	Rules int
	// Events were re-enqueued (orphaned: accepted but never dispatched).
	Events int
	// Skipped records failed to parse or re-register and were dropped
	// with a logged warning.
	Skipped int
}

// RecoveredRule is one live rule reconstructed by Open.
type RecoveredRule struct {
	ID         string
	Doc        string
	Registered time.Time
	// Tenant is the owning namespace in wire form ("" = default tenant).
	Tenant string
}

// RecoveredRules returns the live rules reconstructed by Open, in
// registration order.
func (s *Store) RecoveredRules() []RecoveredRule {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]RecoveredRule, 0, len(s.ruleOrder))
	for _, id := range s.ruleOrder {
		r := s.rules[id]
		out = append(out, RecoveredRule{ID: r.ID, Doc: r.Doc, Registered: r.Registered, Tenant: r.Tenant})
	}
	return out
}

// PendingEvents returns the payloads of accepted-but-undispatched events,
// oldest first.
func (s *Store) PendingEvents() []string {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.events))
	for _, id := range s.eventOrderLocked() {
		out = append(out, s.events[id].Doc)
	}
	return out
}

// RecoverTenants replays the reconstructed state into a running system:
// every live rule document is parsed and handed to register (in
// registration order) with the tenant it was journaled under, then every
// orphaned event is parsed and handed to publish with its tenant. A
// record that fails to parse or re-register is dropped with a logged,
// metered warning — recovery never aborts on bad data. Afterwards the
// store snapshots and compacts, so the replayed events are not replayed
// again on the next boot.
//
// Journal appends are suppressed while the callbacks run (the records
// being replayed are already durable).
func (s *Store) RecoverTenants(
	register func(tenant, id string, doc *xmltree.Node, registered time.Time) error,
	publish func(tenant string, doc *xmltree.Node) error,
) (RecoveryStats, error) {
	if s == nil {
		return RecoveryStats{}, nil
	}
	s.mu.Lock()
	rules := make([]ruleEntry, 0, len(s.ruleOrder))
	for _, id := range s.ruleOrder {
		rules = append(rules, s.rules[id])
	}
	eventIDs := s.eventOrderLocked()
	events := make([]eventEntry, 0, len(eventIDs))
	for _, id := range eventIDs {
		events = append(events, s.events[id])
	}
	s.recovering = true
	stats := RecoveryStats{Skipped: s.openSkipped}
	s.mu.Unlock()

	ruleStart := time.Now()
	var dead []string
	for _, r := range rules {
		doc, err := xmltree.ParseString(r.Doc)
		if err == nil {
			err = register(r.Tenant, r.ID, doc, r.Registered)
		}
		if err != nil {
			stats.Skipped++
			s.met.recSkip.Inc()
			s.warn("recovered rule skipped", "rule", r.ID, "tenant", r.Tenant, "error", err.Error(), "doc", r.Doc)
			dead = append(dead, ruleKey(r.Tenant, r.ID))
			continue
		}
		stats.Rules++
		s.met.recRules.Inc()
	}
	s.trace.AddSpan(obs.Span{Stage: "store", Component: "recover-rules", Mode: "store",
		TuplesIn: len(rules), TuplesOut: stats.Rules, Start: ruleStart, Duration: time.Since(ruleStart)})

	evStart := time.Now()
	for _, e := range events {
		doc, err := xmltree.ParseString(e.Doc)
		if err == nil {
			err = publish(e.Tenant, doc)
		}
		if err != nil {
			stats.Skipped++
			s.met.recSkip.Inc()
			s.warn("recovered event skipped", "event", e.ID, "tenant", e.Tenant, "error", err.Error(), "doc", e.Doc)
			continue
		}
		stats.Events++
		s.met.recEvents.Inc()
	}
	s.trace.AddSpan(obs.Span{Stage: "store", Component: "recover-events", Mode: "store",
		TuplesIn: len(events), TuplesOut: stats.Events, Start: evStart, Duration: time.Since(evStart)})

	s.mu.Lock()
	for _, id := range dead {
		delete(s.rules, id)
		s.dropOrder(id)
	}
	// Every replayed event has been dispatched; nothing is pending now.
	s.events = map[uint64]eventEntry{}
	s.recovering = false
	s.recoveredRules = stats.Rules
	s.recoveredEvents = stats.Events
	s.recoveredSkipped = stats.Skipped
	err := s.snapshotLocked()
	s.mu.Unlock()
	s.trace.Finish("completed")
	s.info("recovery complete", "rules", stats.Rules, "events", stats.Events, "skipped", stats.Skipped)
	return stats, err
}

// --- life cycle / introspection ----------------------------------------------------

// Close snapshots and compacts one last time, stops the background sync
// loop, syncs and closes the journal. Safe to call more than once.
func (s *Store) Close() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	snapErr := s.snapshotLocked()
	s.syncLocked()
	err := s.journal.Close()
	s.mu.Unlock()
	close(s.stopSync)
	s.syncDone.Wait()
	s.trace.Finish("completed")
	if snapErr != nil {
		return snapErr
	}
	return err
}

// Health is the store section of the /healthz response.
type Health struct {
	Dir              string    `json:"dir"`
	Fsync            string    `json:"fsync"`
	Rules            int       `json:"rules"`
	PendingEvents    int       `json:"pending_events"`
	JournalRecords   int       `json:"journal_records"`
	JournalBytes     int64     `json:"journal_bytes"`
	LastSnapshot     time.Time `json:"last_snapshot,omitempty"`
	RecoveredRules   int       `json:"recovered_rules"`
	RecoveredEvents  int       `json:"recovered_events"`
	RecoveredSkipped int       `json:"recovered_skipped"`
}

// Health snapshots the store's introspection counters.
func (s *Store) Health() Health {
	if s == nil {
		return Health{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return Health{
		Dir:              s.dir,
		Fsync:            string(s.policy),
		Rules:            len(s.rules),
		PendingEvents:    len(s.events),
		JournalRecords:   s.journalRecords,
		JournalBytes:     s.journalBytes,
		LastSnapshot:     s.lastSnapshot,
		RecoveredRules:   s.recoveredRules,
		RecoveredEvents:  s.recoveredEvents,
		RecoveredSkipped: s.recoveredSkipped,
	}
}

func (s *Store) warn(msg string, args ...any) { s.log.Warn("store: "+msg, args...) }
func (s *Store) info(msg string, args ...any) { s.log.Info("store: "+msg, args...) }
