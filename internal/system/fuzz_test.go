package system_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/domain/travel"
	"repro/internal/protocol"
	"repro/internal/system"
	"repro/internal/xmltree"
)

// FuzzParseEventDocs drives the POST /events body reader with arbitrary
// bodies, as a single XML document or an <eca:events> envelope, or as an
// NDJSON batch. It must never panic, and whatever it accepts must be a
// non-empty list of documents, each holding an element; an NDJSON batch
// also yields each document's text, which parses to the same tree.
func FuzzParseEventDocs(f *testing.F) {
	booking := travel.Booking("John Doe", "Munich", "Paris").String()
	docs := []string{
		booking,
		travel.RuleXML("http://example.org/opaque/store", "http://example.org/opaque/xquery"),
		travel.CarsXML, travel.ClassesXML, travel.AvailabilityXML,
		`<eca:events xmlns:eca="` + protocol.ECANS + `">` + booking + `<t:e xmlns:t="http://t/" x="1"/></eca:events>`,
		`<eca:events xmlns:eca="` + protocol.ECANS + `"/>`,
	}
	// The GRH messages of the Figs. 5–11 replay.
	run, err := bench.RunScenario()
	if err != nil {
		f.Fatal(err)
	}
	for _, tr := range run.Traces {
		docs = append(docs, tr.Payload)
	}
	run.Cleanup()
	for _, d := range docs {
		f.Add(false, []byte(d))
		line, _ := json.Marshal(d)
		f.Add(true, append(line, '\n'))
	}
	// A 32-event NDJSON batch of bookings, one JSON string of XML per line.
	line, _ := json.Marshal(booking)
	f.Add(true, bytes.Repeat(append(line, '\n'), 32))
	f.Add(true, []byte("\n\n"))
	f.Add(true, []byte(`"<a/>"`+"\n"+`"<b>"`+"\n"))

	f.Fuzz(func(t *testing.T, ndjson bool, body []byte) {
		ct := "application/xml"
		if ndjson {
			ct = "application/x-ndjson"
		}
		docs, texts, err := system.ParseEventDocs(ct, bytes.NewReader(body))
		if err != nil {
			return
		}
		if len(docs) == 0 {
			t.Fatal("accepted a body with no events")
		}
		if ndjson != (texts != nil) || texts != nil && len(texts) != len(docs) {
			t.Fatalf("ndjson=%v: %d texts for %d documents", ndjson, len(texts), len(docs))
		}
		for i, text := range texts {
			if d, err := xmltree.ParseString(text); err != nil || !xmltree.Equal(d, docs[i]) {
				t.Fatalf("event %d: text %q does not parse to its document (%v)", i, text, err)
			}
		}
		for i, d := range docs {
			if root := d.Root(); root == nil || root.Kind != xmltree.ElementNode {
				t.Fatalf("event %d is not an element: %q", i, strings.TrimSpace(d.String()))
			}
		}
	})
}
