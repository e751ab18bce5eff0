package system

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/datalog"
	"repro/internal/engine"
	"repro/internal/events"
	"repro/internal/grh"
	"repro/internal/protocol"
	"repro/internal/ruleml"
	"repro/internal/services"
	"repro/internal/snoop"
)

// badTestRuleXML is a rule whose test component is not valid XPath: before
// rules were compiled at registration the register succeeded and every
// matching event produced a service error.
func badTestRuleXML(id string) string {
	return `<eca:rule xmlns:eca="` + protocol.ECANS + `" xmlns:t="` + tNS + `" id="` + id + `">
	  <eca:event><t:ping x="$X"/></eca:event>
	  <eca:test>$X !!= '7'</eca:test>
	  <eca:action><t:pong x="$X"/></eca:action>
	</eca:rule>`
}

// TestRegisterRejectsBadExpression pins the satellite contract: a rule
// whose component expression does not compile is rejected at POST
// /engine/rules with a 400 whose body names the offending component.
func TestRegisterRejectsBadExpression(t *testing.T) {
	sys, err := NewLocal(Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(sys.Mux(nil, nil))
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/engine/rules", "application/xml", strings.NewReader(badTestRuleXML("bad-test")))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400; body %q", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "test[1]") {
		t.Errorf("400 body does not name the bad component: %q", body)
	}
	if !strings.Contains(string(body), "bad-test") {
		t.Errorf("400 body does not name the rule: %q", body)
	}
	// The rejected rule must not be registered.
	for _, id := range sys.Engine.Rules() {
		if id == "bad-test" {
			t.Error("rejected rule is registered")
		}
	}

	// Bad XQuery-lite query components are caught the same way.
	badQuery := `<eca:rule xmlns:eca="` + protocol.ECANS + `" xmlns:t="` + tNS + `"
	  xmlns:xq="` + services.XQueryNS + `" id="bad-query">
	  <eca:event><t:ping x="$X"/></eca:event>
	  <eca:query><xq:query>for $c in doc( return $c</xq:query></eca:query>
	  <eca:action><t:pong x="$X"/></eca:action>
	</eca:rule>`
	resp, err = http.Post(srv.URL+"/engine/rules", "application/xml", strings.NewReader(badQuery))
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "query[1]") {
		t.Fatalf("bad query: status %d body %q, want 400 naming query[1]", resp.StatusCode, body)
	}

	// A healthy rule still registers fine after the rejections.
	resp, err = http.Post(srv.URL+"/engine/rules", "application/xml", strings.NewReader(simpleRuleXML("ok-rule")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy rule: status %d", resp.StatusCode)
	}
}

// TestRegisterRejectsSubMillisecondPeriodic: a snoop:periodic interval
// below 1ms would emit one occurrence per interval of stream time on the
// next event, so POST /engine/rules rejects it as a bad expression (400);
// the intervals the other tests use still register.
func TestRegisterRejectsSubMillisecondPeriodic(t *testing.T) {
	sys, err := NewLocal(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	srv := httptest.NewServer(sys.Mux(nil, nil))
	defer srv.Close()
	for _, c := range []struct {
		interval string
		status   int
	}{
		{"1ns", http.StatusBadRequest},
		{"999us", http.StatusBadRequest},
		{"1ms", http.StatusOK},
		{"5ms", http.StatusOK},
		{"10ms", http.StatusOK},
		{"5s", http.StatusOK},
		{"10s", http.StatusOK},
	} {
		rule := `<eca:rule xmlns:eca="` + protocol.ECANS + `" xmlns:t="` + tNS + `" xmlns:snoop="` + snoop.NS + `" id="p-` + c.interval + `">
		  <eca:event><snoop:periodic interval="` + c.interval + `">
		    <snoop:event><t:open k="$K"/></snoop:event>
		    <snoop:event><t:close k="$K"/></snoop:event>
		  </snoop:periodic></eca:event>
		  <eca:action><t:tick k="$K"/></eca:action>
		</eca:rule>`
		resp, err := http.Post(srv.URL+"/engine/rules", "application/xml", strings.NewReader(rule))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != c.status {
			t.Errorf("interval %s: status %d, want %d; body %q", c.interval, resp.StatusCode, c.status, body)
		}
	}
}

// TestRegisterSkipsOpaquePinnedComponents: components addressed to a pinned
// service URI are opaque to the engine and must not be precompiled — their
// text may be in any language (Fig. 9/10).
func TestRegisterSkipsOpaquePinnedComponents(t *testing.T) {
	sys, err := NewLocal(Config{})
	if err != nil {
		t.Fatal(err)
	}
	rule, err := ruleml.ParseString(`<eca:rule xmlns:eca="` + protocol.ECANS + `" xmlns:t="` + tNS + `" id="opaque-ok">
	  <eca:event><t:ping x="$X"/></eca:event>
	  <eca:query binds="Y">
	    <eca:opaque language="http://example.org/rawlang" uri="http://example.org/raw">this is ( not an expression</eca:opaque>
	  </eca:query>
	  <eca:action><t:pong x="$X"/></eca:action>
	</eca:rule>`)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Engine.Register(rule); err != nil {
		t.Fatalf("pinned-service opaque component rejected at registration: %v", err)
	}
}

// TestRegisterRejectsUnknownOpaqueEvent: an opaque event component in a
// language no processor is registered for, and pinned to no service, is a
// 400 naming the component and the language. It used to fall to the event
// default, the atomic matcher, which registered the <eca:opaque> wrapper as
// a pattern that never fires.
func TestRegisterRejectsUnknownOpaqueEvent(t *testing.T) {
	sys, err := NewLocal(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	const lang = "http://nobody/"
	doc := `<eca:rule xmlns:eca="` + protocol.ECANS + `" xmlns:t="` + tNS + `" id="nobody">
	  <eca:event><eca:opaque language="` + lang + `">e($X)</eca:opaque></eca:event>
	  <eca:action><t:pong x="$X"/></eca:action>
	</eca:rule>`
	rule, err := ruleml.ParseString(doc)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Engine.Register(rule); !errors.Is(err, engine.ErrBadExpression) {
		t.Errorf("Register = %v, want an error wrapping engine.ErrBadExpression", err)
	}
	rec := httptest.NewRecorder()
	sys.Mux(nil, nil).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/engine/rules", strings.NewReader(doc)))
	if body := rec.Body.String(); rec.Code != http.StatusBadRequest || !strings.Contains(body, "event[1]") || !strings.Contains(body, lang) {
		t.Errorf("POST /engine/rules = %d %q, want 400 naming event[1] and %s", rec.Code, body, lang)
	}
	if n := sys.Matcher.Registrations(); n != 0 {
		t.Errorf("%d matcher registrations, want 0", n)
	}
	if ids := sys.Engine.Rules(); len(ids) != 0 {
		t.Errorf("rules %v registered, want none", ids)
	}
}

// TestEngineErrBadExpression pins the sentinel so HTTP layers can map it.
func TestEngineErrBadExpression(t *testing.T) {
	sys, err := NewLocal(Config{})
	if err != nil {
		t.Fatal(err)
	}
	rule, err := ruleml.ParseString(badTestRuleXML("sentinel"))
	if err != nil {
		t.Fatal(err)
	}
	regErr := sys.Engine.Register(rule)
	if !errors.Is(regErr, engine.ErrBadExpression) {
		t.Fatalf("Register error %v does not match engine.ErrBadExpression", regErr)
	}
}

// TestRegisterRejectsDeepNesting: a query or test nested 10⁶ parentheses
// deep used to overflow the compiler's stack, which no handler can
// recover from. Now it is a bad expression (400) whose body quotes only an
// excerpt of it, and the next request is served. A 4 MB operator chain
// used to compile into a tree as deep as the chain and kill the process at
// the first matching event; now it is one node, accepted, and evaluated in
// a loop when its event arrives.
func TestRegisterRejectsDeepNesting(t *testing.T) {
	sys, err := NewLocal(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	srv := httptest.NewServer(sys.Mux(nil, nil))
	defer srv.Close()
	deep := strings.Repeat("(", 1e6) + "1" + strings.Repeat(")", 1e6)
	chain := "1" + strings.Repeat("+1", 2<<20) + " > 1"
	for _, c := range []struct {
		name, component, next string
		status                int
	}{
		{"xq:query", `<eca:query><xq:query>` + deep + `</xq:query></eca:query>`, "after-query", http.StatusBadRequest},
		{"eca:test", `<eca:test>` + deep + ` = 1</eca:test>`, "after-test", http.StatusBadRequest},
		{"4 MB chain", `<eca:test>` + chain + `</eca:test>`, "after-chain", http.StatusOK},
	} {
		t.Run(c.name, func(t *testing.T) {
			rule := `<eca:rule xmlns:eca="` + protocol.ECANS + `" xmlns:t="` + tNS + `" xmlns:xq="` + services.XQueryNS + `" id="deep">
			  <eca:event><t:ping x="$X"/></eca:event>` + c.component + `
			  <eca:action><t:pong x="$X"/></eca:action>
			</eca:rule>`
			resp, err := http.Post(srv.URL+"/engine/rules", "application/xml", strings.NewReader(rule))
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != c.status {
				t.Errorf("status %d, want %d: %.300s", resp.StatusCode, c.status, body)
			}
			if len(body) >= 1024 {
				t.Errorf("body of %d bytes, want under 1 KiB: %.300s…", len(body), body)
			}
			if c.status == http.StatusOK {
				resp, err := http.Post(srv.URL+"/events", "application/xml", strings.NewReader(`<t:ping xmlns:t="`+tNS+`" x="1"/>`))
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
				if info, _ := sys.Engine.RuleInfo("", "deep"); resp.StatusCode != http.StatusOK || info.Firings != 1 {
					t.Errorf("event: status %d, chain rule fired %d times; want 200 and once", resp.StatusCode, info.Firings)
				}
				// The chain's compiled form, about 180 MB, is kept with the
				// rule: unregistering it lets it go, so later tests do not
				// carry it.
				if err := sys.Engine.Unregister("", "deep"); err != nil {
					t.Fatal(err)
				}
			}
			resp, err = http.Post(srv.URL+"/engine/rules", "application/xml", strings.NewReader(simpleRuleXML(c.next)))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("next request: status %d, want 200", resp.StatusCode)
			}
		})
	}
}

// TestRuleCompiledOnce: a rule's expression is compiled once, at
// registration, whatever its size, and every dispatch carries that one
// compiled form. The 4 MB operator chain takes about a second to
// compile.
func TestRuleCompiledOnce(t *testing.T) {
	sys, err := NewLocal(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	d, _ := sys.GRH.Lookup(services.TestNS)
	recorder, inner := *d, d.Local
	var seen []any
	recorder.Local = grh.ServiceFunc(func(req *protocol.Request) (*protocol.Answer, error) {
		seen = append(seen, req.Compiled)
		return inner.Handle(req)
	})
	if err := sys.GRH.Register(recorder); err != nil {
		t.Fatal(err)
	}
	chain := "1" + strings.Repeat("+1", 2<<20) + " > 1"
	rule, err := ruleml.ParseString(`<eca:rule xmlns:eca="` + protocol.ECANS + `" xmlns:t="` + tNS + `" id="chain">
	  <eca:event><t:ping x="$X"/></eca:event>
	  <eca:test><c:test xmlns:c="` + services.TestNS + `">` + chain + `</c:test></eca:test>
	  <eca:action><t:pong x="$X"/></eca:action>
	</eca:rule>`)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Engine.Register(rule); err != nil {
		t.Fatal(err)
	}
	defer sys.Engine.Unregister("", "chain")
	for i := 0; i < 3; i++ {
		sys.Stream.Publish(events.New(pingPayload("1")))
	}
	if info, _ := sys.Engine.RuleInfo("", "chain"); info.Firings != 3 {
		t.Errorf("rule fired %d times, want 3", info.Firings)
	}
	if len(seen) != 3 {
		t.Fatalf("%d test dispatches, want 3", len(seen))
	}
	for i, c := range seen {
		if c == nil || c != seen[0] {
			t.Fatalf("dispatch %d carried a %T compiled form (the first dispatch's: %v), want the same non-nil form on every dispatch", i, c, c == seen[0])
		}
	}
}

// TestRegisterExactVariables: a component's variables come from its
// compiled form, not from a textual scan. An xq query's and an XPath
// test's: a FLWOR variable after a line break or a tab, and a $ in a string
// literal, are not uses; a truly free variable is still one, and rejected
// with 422. A Datalog query binds its variables, with no binds=. A
// snoop:or binds only what both branches bind. An event whose form reports
// nothing is scanned.
func TestRegisterExactVariables(t *testing.T) {
	sys, err := NewLocal(Config{Datalog: datalog.MustParse(`owns(alice, car1). owns(bob, car2).`)})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	srv := httptest.NewServer(sys.Mux(nil, nil))
	defer srv.Close()
	rule := func(id, query, test string) string {
		return `<eca:rule xmlns:eca="` + protocol.ECANS + `" xmlns:t="` + tNS + `"
		  xmlns:xq="` + services.XQueryNS + `" id="` + id + `">
		  <eca:event><t:ping x="$X"/></eca:event>
		  <eca:variable name="N"><eca:query><xq:query>` + query + `</xq:query></eca:query></eca:variable>
		  <eca:test>` + test + `</eca:test>
		  <eca:action><t:pong x="$X" n="$N"/></eca:action>
		</eca:rule>`
	}
	post := func(path, body string) (int, string) {
		resp, err := http.Post(srv.URL+path, "application/xml", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, string(b)
	}
	for i, q := range []string{"for\n$n in (1, 2) return $n", "let\t$a := 1 return $a", "concat('$Price', 'x')"} {
		if code, body := post("/engine/rules", rule(fmt.Sprintf("exact-%d", i), q, "$X = 7")); code != http.StatusOK {
			t.Errorf("register %q: %d %s", q, code, body)
		}
	}
	if code, body := post("/events", `<t:ping xmlns:t="`+tNS+`" x="7"/>`); code != http.StatusOK {
		t.Fatalf("event: %d %s", code, body)
	}
	var got []string
	for _, n := range sys.Notifier.Sent() {
		got = append(got, n.Message.String())
	}
	if len(got) != 4 { // two tuples for the for, one each for the others
		t.Errorf("sent %d notifications, want 4: %v", len(got), got)
	}
	for _, c := range []struct{ query, test string }{
		{"for $n in (1) return $Undeclared", "$X = 7"},
		{"1", "$Undeclared = 7"},
	} {
		code, body := post("/engine/rules", rule("free", c.query, c.test))
		if code != http.StatusUnprocessableEntity || !strings.Contains(body, "$Undeclared") {
			t.Errorf("query %q, test %q: %d %s, want 422 naming $Undeclared", c.query, c.test, code, body)
		}
	}

	// Datalog: owns(X, Y) binds Y for the action.
	if code, body := post("/engine/rules", `<eca:rule xmlns:eca="`+protocol.ECANS+`" xmlns:t="`+tNS+`"
	  xmlns:dl="`+services.DatalogNS+`" id="owns">
	  <eca:event><t:buy x="$X"/></eca:event>
	  <eca:query><dl:query>owns(X, Y)</dl:query></eca:query>
	  <eca:action><t:ship x="$X" y="$Y"/></eca:action>
	</eca:rule>`); code != http.StatusOK {
		t.Fatalf("Datalog rule: %d %s", code, body)
	}
	sys.Notifier.Reset()
	if code, body := post("/events", `<t:buy xmlns:t="`+tNS+`" x="alice"/>`); code != http.StatusOK {
		t.Fatalf("event: %d %s", code, body)
	}
	if sent := sys.Notifier.Sent(); len(sent) != 1 || sent[0].Message.AttrValue("", "y") != "car1" {
		t.Errorf("Datalog rule sent %v, want one ship of car1", sent)
	}

	// snoop:or: $X is bound in one branch only, so the action may not use it.
	code, body := post("/engine/rules", `<eca:rule xmlns:eca="`+protocol.ECANS+`" xmlns:t="`+tNS+`"
	  xmlns:snoop="`+snoop.NS+`" id="one-branch">
	  <eca:event><snoop:or>
	    <snoop:event><t:a x="$X"/></snoop:event>
	    <snoop:event><t:b/></snoop:event>
	  </snoop:or></eca:event>
	  <eca:action><t:p x="$X"/></eca:action>
	</eca:rule>`)
	if code != http.StatusUnprocessableEntity || !strings.Contains(body, "$X") || !strings.Contains(body, "action[1]") {
		t.Errorf("one-branch snoop:or: %d %s, want 422 naming $X and action[1]", code, body)
	}

	// An event language with no compile step: its form reports nothing, so
	// the event is scanned, and the rule listens to every name.
	if err := sys.GRH.Register(grh.Descriptor{Language: "http://u/", FrameworkAware: true,
		Local: grh.ServiceFunc(func(req *protocol.Request) (*protocol.Answer, error) {
			return &protocol.Answer{RuleID: req.RuleID, Component: req.Component}, nil
		})}); err != nil {
		t.Fatal(err)
	}
	unaware := func(id, use string) string {
		return `<eca:rule xmlns:eca="` + protocol.ECANS + `" xmlns:t="` + tNS + `" xmlns:u="http://u/" id="` + id + `">
		  <eca:event><u:watch x="$X"><u:y>$Y</u:y></u:watch></eca:event>
		  <eca:action><t:p v="$` + use + `"/></eca:action>
		</eca:rule>`
	}
	if code, body := post("/engine/rules", unaware("scanned", "Y")); code != http.StatusOK {
		t.Errorf("scanned event: %d %s", code, body)
	}
	if rs, ok := sys.Engine.RuleState("", "scanned"); !ok || rs.Plan.Names() != nil {
		t.Errorf("scanned event plan: %+v", rs.Plan)
	}
	scanned, err := ruleml.ParseString(unaware("scanned", "Y"))
	if err != nil {
		t.Fatal(err)
	}
	if _, vars, err := sys.Engine.Analyze(scanned); err != nil || strings.Join(vars[0].Binds, " ") != "X Y" {
		t.Errorf("scanned event analysis: %+v, %v", vars, err)
	}
	if code, body := post("/engine/rules", unaware("scanned-free", "Z")); code != http.StatusUnprocessableEntity || !strings.Contains(body, "$Z") {
		t.Errorf("scanned event, free $Z: %d %s, want 422", code, body)
	}
}
