package store

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/xmltree"
)

// FuzzReadFrame feeds the frame reader — the decoder of journal and
// snapshot files and of POST /cluster/journal replication batches —
// arbitrary bytes. It must never panic, every payload it returns must
// re-encode to exactly the bytes it consumed, and the stream must end
// either cleanly at a frame boundary (io.EOF) or with errTorn.
func FuzzReadFrame(f *testing.F) {
	// A journal and a snapshot as the store writes them: rules registered
	// and withdrawn, single and batched events (one under a tenant), acks.
	dir := f.TempDir()
	s, err := Open(dir, Options{SnapshotEvery: -1})
	if err != nil {
		f.Fatal(err)
	}
	rule := xmltree.MustParse(`<eca:rule xmlns:eca="http://eca/" xmlns:t="http://t/"><eca:event><t:e m="x"/></eca:event><eca:action><t:a/></eca:action></eca:rule>`)
	ev := xmltree.MustParse(`<t:ev xmlns:t="http://t/" n="1"/>`)
	s.RuleRegistered("", "r1", rule, time.Unix(1700000000, 0))
	s.RuleRegistered("", "r2", rule, time.Unix(1700000001, 0))
	s.RuleUnregistered("", "r2")
	id, err := appendEvent(s, ev)
	if err != nil {
		f.Fatal(err)
	}
	s.AckEvents([]uint64{id})
	ids, err := s.AppendEventBatchTenant("acme", []*xmltree.Node{ev, ev})
	if err != nil {
		f.Fatal(err)
	}
	s.AckEvents(ids[:1])
	journal, err := os.ReadFile(filepath.Join(dir, journalFile))
	if err != nil {
		f.Fatal(err)
	}
	if err := s.Snapshot(); err != nil {
		f.Fatal(err)
	}
	snapshot, err := os.ReadFile(filepath.Join(dir, snapshotFile))
	if err != nil {
		f.Fatal(err)
	}
	s.Close()
	f.Add(journal)
	f.Add(snapshot)
	f.Add(journal[:len(journal)-3]) // torn tail
	f.Add([]byte{})
	f.Add(encodeFrame(nil))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}) // length past the limit

	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReader(bytes.NewReader(data))
		off := 0
		for {
			payload, err := readFrame(br)
			if err == io.EOF {
				if off != len(data) {
					t.Fatalf("clean EOF at offset %d of %d", off, len(data))
				}
				return
			}
			if err != nil {
				if !errors.Is(err, errTorn) {
					t.Fatalf("error at offset %d is not errTorn: %v", off, err)
				}
				return
			}
			frame := encodeFrame(payload)
			if off+len(frame) > len(data) || !bytes.Equal(frame, data[off:off+len(frame)]) {
				t.Fatalf("frame at offset %d does not re-encode to the bytes consumed", off)
			}
			off += len(frame)
		}
	})
}

// A header claiming the largest allowed frame over a body that ends at
// once must not allocate the claimed length: a torn tail or a hostile
// replication batch costs only the bytes actually present.
func TestReadFrameShortBodyAllocatesWhatArrives(t *testing.T) {
	data := encodeFrame([]byte("short"))
	data[0], data[1], data[2], data[3] = 0, 0, 0, maxFrameSize>>24
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := readFrame(bufio.NewReader(bytes.NewReader(data)))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, errTorn) {
		t.Fatalf("err = %v, want errTorn", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("reading a %d-byte torn frame allocated %d bytes", len(data), got)
	}
}
