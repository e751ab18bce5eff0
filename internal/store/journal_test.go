package store

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"testing"
	"time"
)

// FuzzEncodeRecord checks the record encoder against json.Marshal: the
// same payload bytes, HTML escaping and invalid UTF-8 included, the same
// frame around them, and an error exactly when json.Marshal errs.
func FuzzEncodeRecord(f *testing.F) {
	f.Add("event", false, int64(1700000000), int64(123456789), 0, "", uint64(7), `<t:ev xmlns:t="http://t/" n="1"/>`, "")
	f.Add("register", false, int64(1), int64(100), 7200, "r-1", uint64(0), "<a>&amp; \u2028 \u2029 \x01\b\f\n\r\t\\\"</a>", "acme")
	f.Add("event_ack", true, int64(0), int64(0), 0, "", uint64(1<<63), "", "")
	f.Add("event", false, int64(0), int64(0), 86399, "\xff\xfe", uint64(0), "bad \xc3( utf8", "t")
	f.Add("event", false, int64(-62135596801), int64(0), 0, "", uint64(1), "year 0", "")
	f.Add("event", false, int64(253402300800), int64(0), -3600, "", uint64(1), "year 10000", "")
	f.Add("event", false, int64(5), int64(0), 86400+1, "", uint64(1), "zone past 24h", "")
	f.Add("event", false, int64(5), int64(0), 3601, "", uint64(1), "zone with seconds", "")
	f.Fuzz(func(t *testing.T, kind string, zero bool, secs, nanos int64, zone int, rule string, event uint64, doc, tenant string) {
		rec := record{Kind: kind, Rule: rule, Event: event, Doc: doc, Tenant: tenant}
		if !zero {
			rec.Time = time.Unix(secs, nanos).In(time.FixedZone("z", zone))
		}
		want, werr := json.Marshal(rec)
		got, err := appendRecordJSON([]byte("prefix"), &rec)
		if (err == nil) != (werr == nil) {
			t.Fatalf("%+v: error %v, json.Marshal: %v", rec, err, werr)
		}
		if err != nil {
			return
		}
		if !bytes.Equal(got[len("prefix"):], want) || string(got[:len("prefix")]) != "prefix" {
			t.Fatalf("%+v:\n got %s\nwant %s", rec, got, want)
		}
		frame, err := appendRecordFrame(nil, &rec)
		if err != nil || !bytes.Equal(frame, encodeFrame(want)) {
			t.Fatalf("%+v: frame differs from encodeFrame(json.Marshal) (%v)", rec, err)
		}
	})
}

// A batch is journaled with one write. Cut that write at every byte
// offset, as a crash mid-write would: reopening recovers a prefix of the
// batch — exactly the events whose frames are whole — and truncates the
// journal back to the end of the last whole frame.
func TestBatchWriteCutAtEveryOffset(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{SnapshotEvery: -1})
	var shipped []byte
	s.SetReplicationSink(func(r RepRecord) { shipped = append(shipped, r.Frame...) })
	s.RuleRegistered("", "r1", ruleDoc(t, "one"), time.Unix(1700000000, 0))
	before := s.Health().JournalBytes
	texts := []string{`<t:ev xmlns:t="http://t/" n="1"/>`, `<e>&lt;two&gt;</e>`, `<t:ev xmlns:t="http://t/" n="3">three</t:ev>`}
	if _, err := s.AppendEventTexts("acme", texts); err != nil {
		t.Fatal(err)
	}
	journal, err := os.ReadFile(filepath.Join(dir, journalFile))
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if !bytes.Equal(shipped, journal) {
		t.Fatal("replicated frames differ from the journal bytes")
	}
	// ends[k] is the journal length once k events of the batch are whole.
	ends := []int{int(before)}
	for off := int(before); off < len(journal); {
		p, err := readFrame(bufio.NewReader(bytes.NewReader(journal[off:])))
		if err != nil {
			t.Fatal(err)
		}
		off += frameHeaderSize + len(p)
		ends = append(ends, off)
	}
	if len(ends) != len(texts)+1 {
		t.Fatalf("batch wrote %d frames, want %d", len(ends)-1, len(texts))
	}
	for cut := int(before); cut <= len(journal); cut++ {
		cdir := filepath.Join(t.TempDir(), strconv.Itoa(cut))
		if err := os.MkdirAll(cdir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(cdir, journalFile), journal[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		r := open(t, cdir, Options{SnapshotEvery: -1})
		whole := 0
		for whole+1 < len(ends) && ends[whole+1] <= cut {
			whole++
		}
		if got := r.PendingEvents(); !slices.Equal(got, texts[:whole]) {
			t.Fatalf("cut at %d: recovered %q, want %q", cut, got, texts[:whole])
		}
		if rules := r.RecoveredRules(); len(rules) != 1 {
			t.Fatalf("cut at %d: %d rules recovered, want 1", cut, len(rules))
		}
		if got := r.Health().JournalBytes; got != int64(ends[whole]) {
			t.Fatalf("cut at %d: journal truncated to %d, want %d", cut, got, ends[whole])
		}
		r.Close()
	}
}
