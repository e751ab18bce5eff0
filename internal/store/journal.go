// Package store is the durability subsystem: an append-only, checksummed
// write-ahead journal of rule life-cycle records (register/unregister,
// carrying the full ECA-ML document verbatim) and accepted-but-not-yet-
// dispatched atomic events, plus periodic snapshots with journal
// compaction so startup cost is bounded by live state, not history, and
// crash recovery that replays snapshot + journal tail on boot.
//
// The subsystem is strictly opt-in: an engine wired without a Store keeps
// today's purely in-memory behaviour. See docs/DURABILITY.md for the
// record format, fsync policies, recovery semantics and the ops runbook.
package store

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"time"
)

// Record kinds appearing in the journal.
const (
	KindRegister   = "register"   // rule registered: Rule id + Doc (ECA-ML verbatim)
	KindUnregister = "unregister" // rule withdrawn: Rule id
	KindEvent      = "event"      // atomic event accepted: Event id + Doc (payload XML)
	KindEventAck   = "event_ack"  // event dispatched into the engine: Event id
	KindSnapshot   = "snapshot"   // snapshot-file payload (never in the journal)
)

// record is one journal entry. Kind decides which of the other fields are
// meaningful.
type record struct {
	Kind string `json:"kind"`
	// Time stamps the record (registration time for rules, acceptance
	// time for events).
	Time time.Time `json:"time,omitempty"`
	// Rule is the rule id for register/unregister records.
	Rule string `json:"rule,omitempty"`
	// Event is the store-local event id for event/event_ack records.
	Event uint64 `json:"event,omitempty"`
	// Doc is the XML document verbatim: the full ECA-ML rule document for
	// register records, the event payload for event records.
	Doc string `json:"doc,omitempty"`
	// Tenant is the namespace the rule or event belongs to, in wire form:
	// absent (omitted) for the default tenant, so journals written by
	// single-tenant deployments — and by every pre-tenant release — are
	// byte-identical and replay into the default rule space.
	Tenant string `json:"tenant,omitempty"`
}

// Frame layout: a fixed 8-byte header — payload length then IEEE CRC32 of
// the payload, both little-endian uint32 — followed by the JSON payload.
// A torn write (crash mid-append) leaves a short or checksum-mismatching
// final frame, which recovery detects and discards.
const frameHeaderSize = 8

// maxFrameSize bounds a single record so a corrupt length field cannot
// drive recovery into a multi-gigabyte allocation.
const maxFrameSize = 64 << 20

// errTorn marks a frame that is incomplete or fails its checksum — the
// torn tail of a journal interrupted mid-write. Replay stops here.
var errTorn = errors.New("store: torn or corrupt frame")

// encodeFrame renders payload as header+payload bytes.
func encodeFrame(payload []byte) []byte {
	buf := make([]byte, frameHeaderSize+len(payload))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(payload))
	copy(buf[frameHeaderSize:], payload)
	return buf
}

// readFrame reads one frame. io.EOF means a clean end; errTorn (possibly
// wrapped) means a partial or corrupt frame.
func readFrame(r *bufio.Reader) ([]byte, error) {
	var hdr [frameHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("%w: short header: %v", errTorn, err)
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	sum := binary.LittleEndian.Uint32(hdr[4:8])
	if n > maxFrameSize {
		return nil, fmt.Errorf("%w: frame length %d exceeds limit", errTorn, n)
	}
	// The payload grows as bytes arrive rather than being allocated at the
	// claimed length, so a corrupt or hostile length field (replication
	// batches come off the network) costs only the bytes actually present.
	payload, err := io.ReadAll(io.LimitReader(r, int64(n)))
	if err != nil {
		return nil, fmt.Errorf("%w: short payload: %v", errTorn, err)
	}
	if len(payload) < int(n) {
		return nil, fmt.Errorf("%w: short payload: %d of %d bytes", errTorn, len(payload), n)
	}
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, fmt.Errorf("%w: checksum mismatch", errTorn)
	}
	return payload, nil
}

// encodeRecord marshals a record into a framed byte slice.
func encodeRecord(rec record) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	return encodeFrame(payload), nil
}
