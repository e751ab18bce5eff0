package system

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/bindings"
	"repro/internal/datalog"
	"repro/internal/engine"
	"repro/internal/events"
	"repro/internal/grh"
	"repro/internal/protocol"
	"repro/internal/ruleml"
	"repro/internal/services"
	"repro/internal/xmltree"
)

const tNS = "http://t/"

func simpleRuleXML(id string) string {
	return `<eca:rule xmlns:eca="` + protocol.ECANS + `" xmlns:t="` + tNS + `" id="` + id + `">
	  <eca:event><t:ping x="$X"/></eca:event>
	  <eca:action><t:pong x="$X"/></eca:action>
	</eca:rule>`
}

// TestNotifierCollectsAndHooks: below the window and after ten windows of
// sends (plus a few, so the end does not line up with a drop of the older
// half), the count is exact, the hook saw every message in order, Sent is
// the last notifyWindow messages (all of them below it) in send order, and
// Reset zeroes both the window and the count.
func TestNotifierCollectsAndHooks(t *testing.T) {
	for _, total := range []int{2, 10*notifyWindow + 7} {
		n := &Notifier{}
		hooked := 0
		n.OnSend(func(x Notification) {
			if got := x.Message.AttrValue("", "i"); got != fmt.Sprint(hooked) {
				t.Fatalf("hook saw message %s, want %d", got, hooked)
			}
			hooked++
		})
		for i := 0; i < total; i++ {
			m := xmltree.NewElement("", "m")
			m.SetAttr("", "i", fmt.Sprint(i))
			n.Send(m, nil)
		}
		if n.Count() != total || hooked != total {
			t.Fatalf("count = %d, hooked = %d, want %d", n.Count(), hooked, total)
		}
		sent := n.Sent()
		kept := min(total, notifyWindow)
		if len(sent) != kept {
			t.Fatalf("%d sends: Sent holds %d messages, want the last %d", total, len(sent), kept)
		}
		for j, x := range sent {
			if got, want := x.Message.AttrValue("", "i"), fmt.Sprint(total-kept+j); got != want {
				t.Fatalf("%d sends: Sent()[%d] = message %s, want %s", total, j, got, want)
			}
		}
		if len(n.sent) > 2*notifyWindow {
			t.Errorf("notifier retains %d messages, want at most %d", len(n.sent), 2*notifyWindow)
		}
		n.Reset()
		if n.Count() != 0 || len(n.Sent()) != 0 {
			t.Fatalf("after Reset: count = %d, sent = %d", n.Count(), len(n.Sent()))
		}
	}
}

func TestMuxManagementEndpoints(t *testing.T) {
	sys, err := NewLocal(Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(sys.Mux(nil, nil))
	defer srv.Close()

	// Register a rule over HTTP.
	resp, err := http.Post(srv.URL+"/engine/rules", "application/xml", strings.NewReader(simpleRuleXML("http-rule")))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || strings.TrimSpace(string(body)) != "http-rule" {
		t.Fatalf("register: %d %q", resp.StatusCode, body)
	}

	// Publish an event over HTTP.
	ev := `<t:ping xmlns:t="` + tNS + `" x="7"/>`
	resp, err = http.Post(srv.URL+"/events", "application/xml", strings.NewReader(ev))
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || strings.TrimSpace(string(body)) != "1" {
		t.Fatalf("event: %d %q", resp.StatusCode, body)
	}
	if got := len(sys.Notifier.Sent()); got != 1 {
		t.Fatalf("rule did not fire over HTTP: %d", got)
	}

	// Stats endpoint.
	resp, err = http.Get(srv.URL + "/engine/stats")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"rules 1", "instances_created 1", "notifications 1"} {
		if !strings.Contains(string(body), want) {
			t.Errorf("stats missing %q:\n%s", want, body)
		}
	}

	// Error paths.
	resp, _ = http.Post(srv.URL+"/engine/rules", "application/xml", strings.NewReader("<bogus/>"))
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("bad rule status = %d", resp.StatusCode)
	}
	resp.Body.Close()
	resp, _ = http.Get(srv.URL + "/engine/rules?format=ids")
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || strings.TrimSpace(string(body)) != "http-rule" {
		t.Errorf("GET rules?format=ids = %d %q", resp.StatusCode, body)
	}
	resp, _ = http.Get(srv.URL + "/engine/rules")
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	var list struct {
		Rules []engine.RuleInfo `json:"rules"`
	}
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatalf("GET rules JSON: %v\n%s", err, body)
	}
	if len(list.Rules) != 1 || list.Rules[0].ID != "http-rule" ||
		list.Rules[0].Firings != 1 || list.Rules[0].Registered.IsZero() {
		t.Errorf("GET rules = %+v", list.Rules)
	}
	resp, _ = http.Get(srv.URL + "/engine/rules/http-rule")
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	var one engine.RuleInfo
	if err := json.Unmarshal(body, &one); err != nil || one.ID != "http-rule" {
		t.Errorf("GET rules/{id} = %v %q", err, body)
	}
	// DELETE on the collection is a method error; on an id it unregisters.
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/engine/rules", nil)
	resp, _ = http.DefaultClient.Do(req)
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("DELETE rules status = %d", resp.StatusCode)
	}
	resp.Body.Close()
	req, _ = http.NewRequest(http.MethodDelete, srv.URL+"/engine/rules/nope", nil)
	resp, _ = http.DefaultClient.Do(req)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("DELETE unknown rule status = %d", resp.StatusCode)
	}
	resp.Body.Close()
	req, _ = http.NewRequest(http.MethodDelete, srv.URL+"/engine/rules/http-rule", nil)
	resp, _ = http.DefaultClient.Do(req)
	if resp.StatusCode != 200 {
		t.Errorf("DELETE rule status = %d", resp.StatusCode)
	}
	resp.Body.Close()
	if got := sys.Engine.Rules(); len(got) != 0 {
		t.Errorf("rules after DELETE = %v", got)
	}
	req, _ = http.NewRequest(http.MethodPut, srv.URL+"/engine/rules/x", nil)
	resp, _ = http.DefaultClient.Do(req)
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("PUT rules/{id} status = %d", resp.StatusCode)
	}
	resp.Body.Close()
	resp, _ = http.Post(srv.URL+"/events", "application/xml", strings.NewReader("not xml"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad event status = %d", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestStatsCountEveryNotification: /engine/stats and /healthz report every
// message sent since start, not just the ones the notifier still keeps.
func TestStatsCountEveryNotification(t *testing.T) {
	sys, err := NewLocal(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if err := sys.Engine.Register(ruleml.MustParse(simpleRuleXML("count-rule"))); err != nil {
		t.Fatal(err)
	}
	total := 2*notifyWindow + 1
	for i := 0; i < total; i++ {
		sys.Stream.Publish(events.New(xmltree.MustParse(fmt.Sprintf(`<t:ping xmlns:t="%s" x="%d"/>`, tNS, i))))
	}
	srv := httptest.NewServer(sys.Mux(nil, nil))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/engine/stats")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if want := fmt.Sprintf("notifications %d\n", total); !strings.Contains(string(body), want) {
		t.Errorf("/engine/stats lacks %q:\n%s", want, body)
	}
	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h Health
	err = json.NewDecoder(resp.Body).Decode(&h)
	resp.Body.Close()
	if err != nil || h.Notifications != total {
		t.Errorf("/healthz notifications = %d (%v), want %d", h.Notifications, err, total)
	}
}

// TestDeleteRuleTellsMissingFromFailed:DELETE /engine/rules/{id} answers
// 404 only for a rule the node does not hold. A rule that exists but whose
// event registration cannot be withdrawn is a 500 — even when the failing
// service's message happens to contain "no rule", which the handler used
// to take for the engine's own not-found error.
func TestDeleteRuleTellsMissingFromFailed(t *testing.T) {
	sys, err := NewLocal(Config{})
	if err != nil {
		t.Fatal(err)
	}
	const flakyNS = "http://flaky/"
	sys.GRH.Register(grh.Descriptor{Language: flakyNS, Name: "flaky", FrameworkAware: true,
		Local: grh.ServiceFunc(func(req *protocol.Request) (*protocol.Answer, error) {
			if req.Kind == protocol.UnregisterEvent {
				return nil, fmt.Errorf("backend has no rule table for %s", req.RuleID)
			}
			return &protocol.Answer{RuleID: req.RuleID, Component: req.Component}, nil
		})})
	srv := httptest.NewServer(sys.Mux(nil, nil))
	defer srv.Close()
	rule := `<eca:rule xmlns:eca="` + protocol.ECANS + `" xmlns:f="` + flakyNS + `" xmlns:t="` + tNS + `" id="stuck">
	  <eca:event><f:tick/></eca:event>
	  <eca:action><t:pong/></eca:action>
	</eca:rule>`
	resp, err := http.Post(srv.URL+"/engine/rules", "application/xml", strings.NewReader(rule))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("register: %d", resp.StatusCode)
	}
	del := func(id string) (int, string) {
		req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/engine/rules/"+id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	if code, body := del("stuck"); code != http.StatusInternalServerError || !strings.Contains(body, "no rule table") {
		t.Errorf("DELETE of a rule whose unregistration fails = %d %q, want 500 with the service's error", code, body)
	}
	if code, _ := del("absent"); code != http.StatusNotFound {
		t.Errorf("DELETE of an unknown rule = %d, want 404", code)
	}
	resp, _ = http.Get(srv.URL + "/engine/rules/absent")
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET of an unknown rule = %d, want 404", resp.StatusCode)
	}
}

// TestTwoNodeDistributedDetection runs the event service and the engine on
// two different "nodes": node A hosts the stream and the matcher, node B
// hosts the engine. The registration travels A-ward with a ReplyTo URL, and
// detections come back through B's /engine/detect callback — the fully
// remote path of Fig. 3.
func TestTwoNodeDistributedDetection(t *testing.T) {
	// Node A: stream + matcher, delivering via HTTP only.
	nodeA, err := NewLocal(Config{})
	if err != nil {
		t.Fatal(err)
	}
	srvA := httptest.NewServer(nodeA.Mux(nil, nil))
	defer srvA.Close()

	// Node B: engine whose GRH knows the matcher only as a remote service,
	// and which hands out its own detection callback URL.
	nodeB, err := NewLocal(Config{})
	if err != nil {
		t.Fatal(err)
	}
	srvB := httptest.NewServer(nodeB.Mux(nil, nil))
	defer srvB.Close()
	if err := nodeB.GRH.Register(grh.Descriptor{
		Language:       services.MatcherNS,
		Name:           "matcher on node A",
		Kinds:          []ruleml.ComponentKind{ruleml.EventComponent},
		FrameworkAware: true,
		Endpoint:       srvA.URL + "/services/matcher",
	}); err != nil {
		t.Fatal(err)
	}
	// Rebuild node B's default-tenant engine with the callback URL (engine
	// options are fixed at construction); /engine/detect routes to the
	// engine of the answer's tenant space.
	def, err := nodeB.spaceFor("")
	if err != nil {
		t.Fatal(err)
	}
	def.Engine = engine.New(nodeB.GRH, engine.WithReplyTo(srvB.URL+"/engine/detect"))
	nodeB.Engine = def.Engine

	rule := ruleml.MustParse(simpleRuleXML("remote"))
	if err := nodeB.Engine.Register(rule); err != nil {
		t.Fatal(err)
	}
	// The registration must have reached node A.
	if nodeA.Matcher.Registrations() != 1 {
		t.Fatalf("node A registrations = %d", nodeA.Matcher.Registrations())
	}
	// An event on node A's stream must fire node B's rule via the callback.
	payload := xmltree.NewElement(tNS, "ping")
	payload.SetAttr("", "x", "42")
	nodeA.Stream.Publish(events.New(payload))
	sent := nodeB.Notifier.Sent()
	if len(sent) != 1 || sent[0].Message.AttrValue("", "x") != "42" {
		t.Fatalf("node B notifications = %+v", sent)
	}
}

func TestDistributeRewiresEverything(t *testing.T) {
	sys, err := NewLocal(Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(sys.Mux(nil, nil))
	defer srv.Close()
	if err := sys.Distribute(srv.URL); err != nil {
		t.Fatal(err)
	}
	for _, lang := range sys.GRH.Languages() {
		d, _ := sys.GRH.Lookup(lang)
		if d.Local != nil || d.Endpoint == "" {
			t.Errorf("language %s still local after Distribute", lang)
		}
	}
}

func TestConfigDatalogErrorPropagates(t *testing.T) {
	prog := datalog.MustParse(`win(X) :- move(X, Y), not win(Y). move(a, a).`)
	if _, err := NewLocal(Config{Datalog: prog}); err == nil {
		t.Error("unstratifiable rulebase should fail wiring")
	}
}

func TestEngineDetectEndpointRejectsGarbage(t *testing.T) {
	sys, err := NewLocal(Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(sys.Mux(nil, nil))
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/engine/detect", "application/xml", strings.NewReader("<wrong/>"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("detect garbage status = %d", resp.StatusCode)
	}
}

func TestOpaqueEndpointsMounted(t *testing.T) {
	sys, err := NewLocal(Config{})
	if err != nil {
		t.Fatal(err)
	}
	sys.Store.Put("d", xmltree.MustParse(`<d><v>1</v></d>`))
	opaqueDoc := xmltree.MustParse(`<root><item k="a"/></root>`)
	srv := httptest.NewServer(sys.Mux(opaqueDoc, nil))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/opaque/store?query=" + urlQueryEscape("//item/@k"))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "a") {
		t.Errorf("opaque store = %q", body)
	}
	resp, err = http.Get(srv.URL + "/opaque/xquery?query=" + urlQueryEscape("doc('d')//v/text()"))
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "1") {
		t.Errorf("opaque xquery = %q", body)
	}
}

func urlQueryEscape(s string) string {
	var b strings.Builder
	for _, c := range []byte(s) {
		if (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') {
			b.WriteByte(c)
		} else {
			fmt.Fprintf(&b, "%%%02X", c)
		}
	}
	return b.String()
}

// TestRepeatedPatternChildrenFireOnce: a pattern whose n identical children
// bind nothing matches an event with n such children in one way, not in
// its n! assignments: one tuple and one action, in bounded time.
func TestRepeatedPatternChildrenFireOnce(t *testing.T) {
	for _, n := range []int{3, 9, 12} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			sys, err := NewLocal(Config{})
			if err != nil {
				t.Fatal(err)
			}
			defer sys.Close()
			kids := strings.Repeat(`<t:x/>`, n)
			rule := `<eca:rule xmlns:eca="` + protocol.ECANS + `" xmlns:t="` + tNS + `" id="repeated">
			  <eca:event><t:a k="$K">` + kids + `</t:a></eca:event>
			  <eca:action><t:pong k="$K"/></eca:action>
			</eca:rule>`
			if err := sys.Engine.Register(ruleml.MustParse(rule)); err != nil {
				t.Fatal(err)
			}
			ev := events.New(xmltree.MustParse(`<t:a xmlns:t="` + tNS + `" k="1">` + kids + `</t:a>`))
			done := make(chan []bindings.Tuple)
			go func() {
				tuples := events.MustPattern(`<t:a xmlns:t="` + tNS + `" k="$K">` + kids + `</t:a>`).Match(ev)
				sys.Stream.Publish(ev)
				done <- tuples
			}()
			select {
			case tuples := <-done:
				if len(tuples) != 1 {
					t.Fatalf("Match returned %d tuples, want 1", len(tuples))
				}
			case <-time.After(10 * time.Second):
				t.Fatal("matching did not finish in 10s")
			}
			if got := sys.Notifier.Count(); got != 1 {
				t.Fatalf("the action fired %d times, want 1", got)
			}
		})
	}
}
