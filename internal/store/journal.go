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
	"strconv"
	"time"
	"unicode/utf8"
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

// encodeRecord renders a record as one framed byte slice.
func encodeRecord(rec record) ([]byte, error) {
	return appendRecordFrame(nil, &rec)
}

// appendRecordFrame appends rec to b as one frame: the header, then the
// JSON payload byte-identical to json.Marshal(rec). It writes the payload
// in place, so a batch of records costs no per-record allocation.
func appendRecordFrame(b []byte, rec *record) ([]byte, error) {
	start := len(b)
	b = append(b, make([]byte, frameHeaderSize)...)
	b, err := appendRecordJSON(b, rec)
	if err != nil {
		return b[:start], err
	}
	payload := b[start+frameHeaderSize:]
	binary.LittleEndian.PutUint32(b[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[start+4:], crc32.ChecksumIEEE(payload))
	return b, nil
}

// appendRecordJSON appends json.Marshal(rec) to b: the fields in
// declaration order, omitempty honoured (a time.Time is a struct, so its
// omitempty omits nothing) and strings escaped as encoding/json does, HTML
// characters included. A time that RFC 3339 cannot represent is left to
// json.Marshal, which reports the error.
func appendRecordJSON(b []byte, rec *record) ([]byte, error) {
	start := len(b)
	b = append(b, `{"kind":`...)
	b = appendJSONString(b, rec.Kind)
	b = append(b, `,"time":"`...)
	t0 := len(b)
	b = rec.Time.AppendFormat(b, time.RFC3339Nano)
	if !strictRFC3339(b[t0:]) {
		payload, err := json.Marshal(rec)
		return append(b[:start], payload...), err
	}
	b = append(b, '"')
	if rec.Rule != "" {
		b = append(b, `,"rule":`...)
		b = appendJSONString(b, rec.Rule)
	}
	if rec.Event != 0 {
		b = append(b, `,"event":`...)
		b = strconv.AppendUint(b, rec.Event, 10)
	}
	if rec.Doc != "" {
		b = append(b, `,"doc":`...)
		b = appendJSONString(b, rec.Doc)
	}
	if rec.Tenant != "" {
		b = append(b, `,"tenant":`...)
		b = appendJSONString(b, rec.Tenant)
	}
	return append(b, '}'), nil
}

// strictRFC3339 reports whether an RFC3339Nano rendering is one that
// time.Time.MarshalJSON accepts: a four-digit year and a zone hour
// below 24.
func strictRFC3339(t []byte) bool {
	if len(t) < len("2006-01-02T15:04:05Z") || t[4] != '-' {
		return false
	}
	if t[len(t)-1] == 'Z' {
		return true
	}
	c := t[len(t)-len("Z07:00")]
	h := 10*int(t[len(t)-5]-'0') + int(t[len(t)-4]-'0')
	return !('0' <= c && c <= '9') && h < 24
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string exactly as encoding/json
// writes it with HTML escaping on: ", \ and the control characters
// escaped (\b \f \n \r \t by name, the rest as \u00XX), <, > and & as
// \u003c \u003e \u0026, U+2028 and U+2029 escaped, and every invalid UTF-8
// byte replaced by \ufffd.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
