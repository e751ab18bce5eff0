package system_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bindings"
	"repro/internal/events"
	"repro/internal/grh"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/ruleml"
	"repro/internal/services"
	"repro/internal/store"
	"repro/internal/system"
	"repro/internal/xmltree"
)

const (
	isoNS    = "urn:test:isolation"
	spliceNS = "urn:test:splice"
)

// spliceService is an in-process query language that splices each input
// tuple's $E fragment, as it is, into a tree of its own and answers that
// tree as the functional result — what any local component may do with the
// nodes it is handed.
type spliceService struct{}

func (spliceService) Handle(req *protocol.Request) (*protocol.Answer, error) {
	a := &protocol.Answer{RuleID: req.RuleID, Component: req.Component}
	for _, t := range req.Bindings.Tuples() {
		wrap := xmltree.NewElement(spliceNS, "wrap")
		wrap.Append(t["E"].Node())
		a.Rows = append(a.Rows, protocol.AnswerRow{Tuple: t, Results: []bindings.Value{bindings.Fragment(wrap)}})
	}
	return a, nil
}

// TestDetectionPayloadIsolation: every rule that detects an event reads
// the one payload tree the detection shares. A rule that binds the event to
// an <eca:variable> gets its own copy, so a component that splices the
// bound fragment into another tree (the splice service, then an
// xq-constructed element) changes neither the payload nor what another rule
// on the same event binds, nor the text the journal keeps.
func TestDetectionPayloadIsolation(t *testing.T) {
	dir := t.TempDir()
	hub := obs.NewHub()
	st, err := store.Open(dir, store.Options{Obs: hub})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := system.NewLocal(system.Config{Store: st, Obs: hub})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if err := sys.GRH.Register(grh.Descriptor{
		Language:       spliceNS,
		Name:           "splicing query language",
		Kinds:          []ruleml.ComponentKind{ruleml.QueryComponent},
		FrameworkAware: true,
		Local:          spliceService{},
	}); err != nil {
		t.Fatal(err)
	}
	mux := sys.Mux(nil, nil)
	post := func(path, contentType, body string) {
		t.Helper()
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
		req.Header.Set("Content-Type", contentType)
		mux.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("POST %s = %d %s", path, rec.Code, rec.Body)
		}
	}
	head := `<eca:rule xmlns:eca="` + protocol.ECANS + `" xmlns:i="` + isoNS + `" xmlns:s="` + spliceNS +
		`" xmlns:xq="` + services.XQueryNS + `"`
	post("/engine/rules", "application/xml", head+` id="splicer">
	  <eca:variable name="E"><eca:event><i:booking person="$P"/></eca:event></eca:variable>
	  <eca:variable name="W"><eca:query><s:splice>$E</s:splice></eca:query></eca:variable>
	  <eca:variable name="X"><eca:query><xq:query>&lt;copy&gt;{$W}{$E}&lt;/copy&gt;</xq:query></eca:query></eca:variable>
	  <eca:action><i:spliced person="$P">$X</i:spliced></eca:action>
	</eca:rule>`)
	post("/engine/rules", "application/xml", head+` id="reader">
	  <eca:event><i:booking person="$P" to="$D"/></eca:event>
	  <eca:action><i:seen person="$P" to="$D"/></eca:action>
	</eca:rule>`)

	var payload, parent *xmltree.Node
	cancel := sys.Stream.Subscribe(func(ev events.Event) { payload, parent = ev.Payload, ev.Payload.Parent })
	defer cancel()
	text := `<i:booking xmlns:i="` + isoNS + `" person="Ann" to="Oslo"><i:leg n="1"/></i:booking>`
	want := xmltree.MustParse(text).String()
	line, _ := json.Marshal(text)
	post("/events", "application/x-ndjson", string(line)+"\n")

	if payload == nil {
		t.Fatal("no event published")
	}
	if payload.Parent != parent || payload.String() != want {
		t.Errorf("payload changed by the instances: parent %p, %s; want parent %p, %s", payload.Parent, payload, parent, want)
	}
	var spliced, seen *xmltree.Node
	for _, n := range sys.Notifier.Sent() {
		switch n.Message.Name.Local {
		case "spliced":
			spliced = n.Message
		case "seen":
			seen = n.Message
		}
	}
	if spliced == nil || !strings.Contains(spliced.String(), ":wrap") || strings.Count(spliced.String(), `person="Ann" to="Oslo"`) != 2 {
		t.Fatalf("splicer action = %v, want the spliced copy", spliced)
	}
	if seen == nil || seen.AttrValue("", "person") != "Ann" || seen.AttrValue("", "to") != "Oslo" {
		t.Errorf("reader action = %v, want person Ann to Oslo", seen)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "*"))
	var journal []byte
	for _, f := range files {
		b, _ := os.ReadFile(f)
		journal = append(journal, b...)
	}
	if !bytes.Contains(journal, line[1:len(line)-1]) {
		t.Errorf("journal does not hold the event text as received: %s", line)
	}
}
