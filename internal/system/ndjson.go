package system

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"
	"unicode/utf8"

	"repro/internal/xmltree"
)

// maxNDJSONLine bounds one line of an NDJSON event batch.
const maxNDJSONLine = 4 << 20

// parseNDJSON reads an application/x-ndjson batch: one JSON string per
// line, each holding one XML event document; blank lines are skipped. It
// returns the parsed documents and, for each, the XML text as received,
// which the durable store journals as is.
func parseNDJSON(body io.Reader) ([]*xmltree.Node, []string, error) {
	var docs []*xmltree.Node
	var texts []string
	sc := bufio.NewScanner(body)
	sc.Buffer(nil, maxNDJSONLine)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		frag, err := decodeJSONString(line)
		var doc *xmltree.Node
		if err == nil {
			doc, err = xmltree.ParseString(frag)
		}
		if err != nil {
			// A body cut off at its bound ends in a partial line: report
			// the read error, not the line.
			if rerr := sc.Err(); rerr != nil {
				return nil, nil, rerr
			}
			return nil, nil, fmt.Errorf("ndjson line %d: %w", len(docs)+1, err)
		}
		docs = append(docs, doc)
		texts = append(texts, frag)
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	if len(docs) == 0 {
		return nil, nil, errors.New("empty ndjson event batch")
	}
	return docs, texts, nil
}

// decodeJSONString decodes one JSON string value. The common shapes (plain
// characters, the two-character escapes, \uXXXX outside the surrogates)
// are decoded here; anything else — a control byte, a bad escape, a
// surrogate, invalid UTF-8, trailing bytes or a value that is not a string
// — goes to encoding/json, so the result and the error are always exactly
// json.Unmarshal's.
func decodeJSONString(line []byte) (string, error) {
	if s, ok := decodeSimpleJSONString(line); ok {
		return s, nil
	}
	var s string
	err := json.Unmarshal(line, &s)
	return s, err
}

// decodeSimpleJSONString is the fast path of decodeJSONString; ok is false
// when the line needs encoding/json.
func decodeSimpleJSONString(line []byte) (string, bool) {
	n := len(line)
	if n < 2 || line[0] != '"' || line[n-1] != '"' {
		return "", false
	}
	body := line[1 : n-1]
	var sb strings.Builder
	start := 0
	for i := 0; i < len(body); {
		c := body[i]
		switch {
		case c == '"' || c < 0x20:
			return "", false
		case c >= utf8.RuneSelf:
			r, size := utf8.DecodeRune(body[i:])
			if r == utf8.RuneError && size == 1 {
				return "", false
			}
			i += size
		case c != '\\':
			i++
		default:
			if i+1 == len(body) {
				return "", false // the closing quote is escaped
			}
			if start == 0 {
				sb.Grow(len(body))
			}
			sb.Write(body[start:i])
			switch e := body[i+1]; e {
			case '"', '\\', '/':
				sb.WriteByte(e)
			case 'b':
				sb.WriteByte('\b')
			case 'f':
				sb.WriteByte('\f')
			case 'n':
				sb.WriteByte('\n')
			case 'r':
				sb.WriteByte('\r')
			case 't':
				sb.WriteByte('\t')
			case 'u':
				r, ok := hex4(body[i+2:])
				if !ok || 0xd800 <= r && r < 0xe000 { // surrogates pair up in encoding/json
					return "", false
				}
				sb.WriteRune(r)
				i += 4
			default:
				return "", false
			}
			i += 2
			start = i
		}
	}
	if start == 0 {
		return string(body), true
	}
	sb.Write(body[start:])
	return sb.String(), true
}

// hex4 decodes the four hex digits that start b.
func hex4(b []byte) (rune, bool) {
	if len(b) < 4 {
		return 0, false
	}
	var r rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, false
		}
		r = r<<4 | rune(c)
	}
	return r, true
}
