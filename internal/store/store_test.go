package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/xmltree"
)

func doc(t *testing.T, src string) *xmltree.Node {
	t.Helper()
	d, err := xmltree.ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func ruleDoc(t *testing.T, marker string) *xmltree.Node {
	t.Helper()
	return doc(t, `<eca:rule xmlns:eca="http://eca/" xmlns:t="http://t/">
	  <eca:event><t:e m="`+marker+`"/></eca:event>
	  <eca:action><t:a/></eca:action>
	</eca:rule>`)
}

func open(t *testing.T, dir string, o Options) *Store {
	t.Helper()
	s, err := Open(dir, o)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// Registered rules and unacked events survive a reopen; acked events and
// unregistered rules do not.
func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{Fsync: FsyncAlways})
	s.RuleRegistered("", "r1", ruleDoc(t, "one"), time.Now())
	s.RuleRegistered("", "r2", ruleDoc(t, "two"), time.Now())
	s.RuleUnregistered("", "r2")
	id1, err := appendEvent(s, doc(t, `<t:ev xmlns:t="http://t/" n="1"/>`))
	if err != nil {
		t.Fatal(err)
	}
	id2, err := appendEvent(s, doc(t, `<t:ev xmlns:t="http://t/" n="2"/>`))
	if err != nil {
		t.Fatal(err)
	}
	if id1 == 0 || id2 == 0 || id1 == id2 {
		t.Fatalf("event ids = %d, %d", id1, id2)
	}
	s.AckEvents([]uint64{id1})
	// No Close: simulate a crash (appends are already on disk).

	r := open(t, dir, Options{})
	defer r.Close()
	rules := r.RecoveredRules()
	if len(rules) != 1 || rules[0].ID != "r1" || !strings.Contains(rules[0].Doc, `m="one"`) {
		t.Fatalf("recovered rules = %+v", rules)
	}
	if rules[0].Registered.IsZero() {
		t.Error("registration time lost")
	}
	pending := r.PendingEvents()
	if len(pending) != 1 || !strings.Contains(pending[0], `n="2"`) {
		t.Fatalf("pending events = %v", pending)
	}
}

// A torn final record (crash mid-append) is discarded; everything before
// it is recovered, and the journal accepts appends again afterwards.
func TestTornFinalRecordDiscarded(t *testing.T) {
	for _, tear := range []struct {
		name string
		grow func([]byte) []byte
	}{
		{"partial header", func(b []byte) []byte { return append(b, 0x05, 0x00) }},
		{"partial payload", func(b []byte) []byte {
			frame := encodeFrame([]byte(`{"kind":"unregister","rule":"r1"}`))
			return append(b, frame[:len(frame)-3]...)
		}},
		{"checksum mismatch", func(b []byte) []byte {
			frame := encodeFrame([]byte(`{"kind":"unregister","rule":"r1"}`))
			frame[len(frame)-1] ^= 0xff
			return append(b, frame...)
		}},
	} {
		t.Run(tear.name, func(t *testing.T) {
			dir := t.TempDir()
			s := open(t, dir, Options{})
			s.RuleRegistered("", "r1", ruleDoc(t, "keep"), time.Now())
			// Crash: corrupt the tail directly on disk.
			path := filepath.Join(dir, journalFile)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tear.grow(data), 0o644); err != nil {
				t.Fatal(err)
			}

			r := open(t, dir, Options{})
			rules := r.RecoveredRules()
			if len(rules) != 1 || rules[0].ID != "r1" {
				t.Fatalf("recovered rules = %+v", rules)
			}
			// The torn tail was truncated: new appends must land on a
			// clean boundary and survive the next reopen.
			r.RuleRegistered("", "r2", ruleDoc(t, "after"), time.Now())
			r2 := open(t, dir, Options{})
			if got := len(r2.RecoveredRules()); got != 2 {
				t.Fatalf("rules after tear+append = %d, want 2", got)
			}
		})
	}
}

// A truncated snapshot is skipped with a metered warning; recovery falls
// back to the journal tail and the store keeps working.
func TestTruncatedSnapshotSkipped(t *testing.T) {
	dir := t.TempDir()
	hub := obs.NewHub()
	s := open(t, dir, Options{})
	s.RuleRegistered("", "in-snapshot", ruleDoc(t, "s"), time.Now())
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	s.RuleRegistered("", "in-journal", ruleDoc(t, "j"), time.Now())
	// Crash, then the snapshot gets truncated (disk corruption).
	path := filepath.Join(dir, snapshotFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	r := open(t, dir, Options{Obs: hub})
	rules := r.RecoveredRules()
	if len(rules) != 1 || rules[0].ID != "in-journal" {
		t.Fatalf("recovered rules = %+v (snapshot content is unrecoverable, journal tail must survive)", rules)
	}
	var exp strings.Builder
	hub.Metrics().WritePrometheus(&exp)
	if !strings.Contains(exp.String(), "store_recovery_skipped_total 1") {
		t.Errorf("skip not metered:\n%s", exp.String())
	}
	if h := r.Health(); h.RecoveredSkipped == 0 {
		// Health freezes the counters only after Recover; openSkipped is
		// surfaced through RecoveryStats.
		stats, err := r.RecoverTenants(
			func(_, _ string, _ *xmltree.Node, _ time.Time) error { return nil },
			func(string, *xmltree.Node) error { return nil },
		)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Skipped != 1 || stats.Rules != 1 {
			t.Errorf("stats = %+v", stats)
		}
	}
}

// Duplicate register/unregister sequences collapse idempotently on
// replay: last write wins, unregister of a gone rule is a no-op.
func TestDuplicateRegisterUnregisterSequences(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{})
	s.RuleRegistered("", "r", ruleDoc(t, "v1"), time.Now())
	s.RuleRegistered("", "r", ruleDoc(t, "v2"), time.Now()) // overwrite
	s.RuleUnregistered("", "r")
	s.RuleUnregistered("", "r") // no-op
	s.RuleRegistered("", "r", ruleDoc(t, "v3"), time.Now())
	s.RuleUnregistered("", "ghost") // never registered

	r := open(t, dir, Options{})
	rules := r.RecoveredRules()
	if len(rules) != 1 || rules[0].ID != "r" || !strings.Contains(rules[0].Doc, `m="v3"`) {
		t.Fatalf("recovered rules = %+v, want single r at v3", rules)
	}
}

// Recovery skips records that fail to parse or re-register, keeps going,
// and compacts so replayed events are not replayed twice.
func TestRecoverSkipsBadRecordsAndCompacts(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{})
	s.RuleRegistered("", "good", ruleDoc(t, "ok"), time.Now())
	s.RuleRegistered("", "rejected", ruleDoc(t, "rej"), time.Now())
	if _, err := appendEvent(s, doc(t, `<t:ev xmlns:t="http://t/"/>`)); err != nil {
		t.Fatal(err)
	}
	// Inject a register record whose document is not well-formed XML, as
	// a corrupted-but-checksum-valid journal entry would carry.
	bad, err := encodeRecord(record{Kind: KindRegister, Rule: "mangled", Doc: "<not-closed", Time: time.Now()})
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, journalFile), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(bad); err != nil {
		t.Fatal(err)
	}
	f.Close()

	r := open(t, dir, Options{})
	var registered, published []string
	stats, err := r.RecoverTenants(
		func(_, id string, _ *xmltree.Node, _ time.Time) error {
			if id == "rejected" {
				return errors.New("analyzer said no")
			}
			registered = append(registered, id)
			return nil
		},
		func(_ string, d *xmltree.Node) error {
			published = append(published, d.Root().Name.Local)
			return nil
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rules != 1 || stats.Events != 1 || stats.Skipped != 2 {
		t.Fatalf("stats = %+v, want 1 rule, 1 event, 2 skipped", stats)
	}
	if len(registered) != 1 || registered[0] != "good" || len(published) != 1 {
		t.Fatalf("registered = %v, published = %v", registered, published)
	}
	if h := r.Health(); h.PendingEvents != 0 || h.JournalRecords != 0 {
		t.Fatalf("health after recover = %+v, want compacted", h)
	}

	// Second boot: the replayed event must not come back, the skipped
	// rules are gone for good, the good rule is still live.
	r2 := open(t, dir, Options{})
	stats2, err := r2.RecoverTenants(
		func(_, _ string, _ *xmltree.Node, _ time.Time) error { return nil },
		func(string, *xmltree.Node) error { t.Error("event replayed twice"); return nil },
	)
	if err != nil {
		t.Fatal(err)
	}
	if stats2.Rules != 1 || stats2.Events != 0 || stats2.Skipped != 0 {
		t.Fatalf("second boot stats = %+v", stats2)
	}
}

// Automatic snapshots bound the journal: after many appends the journal
// holds fewer records than SnapshotEvery and the snapshot carries the
// live state.
func TestAutoSnapshotCompaction(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{SnapshotEvery: 4})
	for i := 0; i < 25; i++ {
		s.RuleRegistered("", fmt.Sprintf("r%d", i), ruleDoc(t, "x"), time.Now())
	}
	h := s.Health()
	if h.JournalRecords >= 4 {
		t.Errorf("journal records = %d, want < 4 (compaction ran)", h.JournalRecords)
	}
	if h.Rules != 25 {
		t.Errorf("rules = %d", h.Rules)
	}
	if h.LastSnapshot.IsZero() {
		t.Error("no snapshot recorded")
	}

	r := open(t, dir, Options{})
	if got := len(r.RecoveredRules()); got != 25 {
		t.Errorf("recovered = %d, want 25", got)
	}
}

// Close snapshots, so a graceful shutdown leaves an empty journal and a
// complete snapshot; reopen recovers everything including pending events.
func TestCloseCompactsAndPersistsPending(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{Fsync: FsyncInterval, FsyncInterval: time.Millisecond})
	s.RuleRegistered("", "r", ruleDoc(t, "z"), time.Now())
	if _, err := appendEvent(s, doc(t, `<t:orphan xmlns:t="http://t/"/>`)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	// Post-close writes are silently dropped, not crashes.
	s.RuleRegistered("", "late", ruleDoc(t, "late"), time.Now())

	r := open(t, dir, Options{})
	if got := len(r.RecoveredRules()); got != 1 {
		t.Errorf("recovered rules = %d", got)
	}
	if got := len(r.PendingEvents()); got != 1 {
		t.Errorf("pending events = %d", got)
	}
	if h := r.Health(); h.JournalRecords != 0 {
		t.Errorf("journal not compacted on close: %+v", h)
	}
}

// Event sequence numbers stay monotonic across snapshot+reopen so old
// ack records can never acknowledge a new event.
func TestEventSeqMonotonicAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{})
	id1, _ := appendEvent(s, doc(t, `<e/>`))
	s.AckEvents([]uint64{id1})
	s.Close()
	r := open(t, dir, Options{})
	defer r.Close()
	id2, _ := appendEvent(r, doc(t, `<e/>`))
	if id2 <= id1 {
		t.Errorf("event ids not monotonic: %d then %d", id1, id2)
	}
}

// The journal metrics land in the hub's registry with the documented
// names and the exposition stays lint-clean.
func TestStoreMetricsExposition(t *testing.T) {
	dir := t.TempDir()
	hub := obs.NewHub()
	s := open(t, dir, Options{Obs: hub, Fsync: FsyncAlways})
	defer s.Close()
	s.RuleRegistered("", "r", ruleDoc(t, "m"), time.Now())
	id, _ := appendEvent(s, doc(t, `<e/>`))
	s.AckEvents([]uint64{id})
	var exp strings.Builder
	hub.Metrics().WritePrometheus(&exp)
	out := exp.String()
	for _, want := range []string{
		`store_journal_records_total{kind="register"} 1`,
		`store_journal_records_total{kind="event"} 1`,
		`store_journal_records_total{kind="event_ack"} 1`,
		"store_fsync_seconds_count",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if _, err := obs.ParseExposition(strings.NewReader(out)); err != nil {
		t.Errorf("exposition lint: %v", err)
	}
}

// A nil *Store is a valid no-op for every method, the in-memory mode.
func TestNilStoreIsNoOp(t *testing.T) {
	var s *Store
	s.RuleRegistered("", "r", nil, time.Now())
	s.RuleUnregistered("", "r")
	if id, err := appendEvent(s, nil); id != 0 || err != nil {
		t.Fatalf("append on nil = %d, %v", id, err)
	}
	s.AckEvents([]uint64{0})
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if h := s.Health(); h.Rules != 0 {
		t.Fatal("nil health")
	}
	if _, err := s.RecoverTenants(nil, nil); err != nil {
		t.Fatal(err)
	}
}

func TestParseFsyncPolicy(t *testing.T) {
	for _, ok := range []string{"always", "interval", "never", ""} {
		if _, err := ParseFsyncPolicy(ok); err != nil {
			t.Errorf("ParseFsyncPolicy(%q) = %v", ok, err)
		}
	}
	if _, err := ParseFsyncPolicy("sometimes"); err == nil {
		t.Error("bogus policy accepted")
	}
}

// The snapshot file is self-describing JSON in one checksummed frame —
// pin the format so external tooling can rely on it.
func TestSnapshotFormat(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{})
	s.RuleRegistered("", "r", ruleDoc(t, "fmt"), time.Now())
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, snapshotFile))
	if err != nil {
		t.Fatal(err)
	}
	var snap snapshotPayload
	if err := json.Unmarshal(data[frameHeaderSize:], &snap); err != nil {
		t.Fatalf("snapshot payload: %v", err)
	}
	if snap.Kind != KindSnapshot || len(snap.Rules) != 1 || snap.Rules[0].ID != "r" {
		t.Fatalf("snapshot = %+v", snap)
	}
}

// AppendEventBatchTenant journals N events in one lock acquisition with ids
// indistinguishable from N sequential one-event appends; AckEvents clears
// the acked subset and recovery re-enqueues only the orphans.
func TestAppendEventBatchRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{Fsync: FsyncAlways})
	docs := []*xmltree.Node{
		doc(t, `<t:ev xmlns:t="http://t/" n="1"/>`),
		doc(t, `<t:ev xmlns:t="http://t/" n="2"/>`),
		doc(t, `<t:ev xmlns:t="http://t/" n="3"/>`),
	}
	ids, err := s.AppendEventBatchTenant("", docs)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 3 {
		t.Fatalf("ids = %v", ids)
	}
	for i := 1; i < len(ids); i++ {
		if ids[i] != ids[i-1]+1 {
			t.Fatalf("batch ids not consecutive: %v", ids)
		}
	}
	s.AckEvents(ids[:2])
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := open(t, dir, Options{})
	defer r.Close()
	pend := r.PendingEvents()
	if len(pend) != 1 || !strings.Contains(pend[0], `n="3"`) {
		t.Fatalf("pending after recovery = %v", pend)
	}
}

// A batch append under FsyncAlways flushes once for the whole batch, not
// once per record (the fsync histogram counts syncLocked calls).
func TestAppendEventBatchSingleFsync(t *testing.T) {
	dir := t.TempDir()
	hub := obs.NewHub()
	s := open(t, dir, Options{Obs: hub, Fsync: FsyncAlways})
	defer s.Close()
	var docs []*xmltree.Node
	for i := 0; i < 16; i++ {
		docs = append(docs, doc(t, fmt.Sprintf(`<e n="%d"/>`, i)))
	}
	var before strings.Builder
	hub.Metrics().WritePrometheus(&before)
	if _, err := s.AppendEventBatchTenant("", docs); err != nil {
		t.Fatal(err)
	}
	var after strings.Builder
	hub.Metrics().WritePrometheus(&after)
	delta := fsyncCount(t, after.String()) - fsyncCount(t, before.String())
	if delta != 1 {
		t.Errorf("batch of 16 cost %d fsyncs, want 1", delta)
	}
}

func fsyncCount(t *testing.T, exposition string) int {
	t.Helper()
	for _, line := range strings.Split(exposition, "\n") {
		if strings.HasPrefix(line, "store_fsync_seconds_count") {
			var n int
			if _, err := fmt.Sscanf(strings.Fields(line)[1], "%d", &n); err != nil {
				t.Fatal(err)
			}
			return n
		}
	}
	return 0
}

// Nil stores and empty batches are safe no-ops.
func TestAppendEventBatchNilStore(t *testing.T) {
	var s *Store
	ids, err := s.AppendEventBatchTenant("", []*xmltree.Node{doc(t, `<e/>`)})
	if err != nil || len(ids) != 1 || ids[0] != 0 {
		t.Fatalf("nil store: ids=%v err=%v", ids, err)
	}
	s.AckEvents(ids)
}

// appendEvent journals one default-tenant event and returns its id.
func appendEvent(s *Store, d *xmltree.Node) (uint64, error) {
	ids, err := s.AppendEventBatchTenant("", []*xmltree.Node{d})
	if err != nil {
		return 0, err
	}
	return ids[0], nil
}
