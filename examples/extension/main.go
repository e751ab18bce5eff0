// Extension demonstrates the framework's central claim — "combining
// arbitrary event detection, query and action languages" — by deploying a
// component language the engine has never heard of: a sliding-window
// counting language (internal/winlang). The recipe is the paper's:
//
//  1. give the language a namespace URI,
//  2. host it as a service that accepts registration requests and posts
//     log:answers detection messages — the language supplies only its
//     compile and build steps (winlang.Language), services.DetectorHost
//     does the rest,
//  3. register the service in the GRH under the URI, with the host's
//     Compile, so a malformed expression is rejected when its rule is
//     registered and the detector is built from that one compile.
//
// That is one Register call. No engine, GRH or rule-markup changes — a
// rule simply writes its event component in the new namespace:
//
//	ON   at least 3 failed logins by the same user within 10s
//	DO   lock the account
//
// Run with: go run ./examples/extension
package main

import (
	"fmt"
	"log"
	"time"

	eca "repro"
	"repro/internal/grh"
	"repro/internal/ruleml"
	"repro/internal/services"
	"repro/internal/winlang"
	"repro/internal/xmltree"
)

const secNS = "http://example.org/security"

const lockoutRule = `<eca:rule xmlns:eca="http://www.semwebtech.org/languages/2006/eca-ml"
    xmlns:win="` + winlang.NS + `" xmlns:sec="` + secNS + `" id="lockout">
  <eca:event>
    <win:atleast n="3" within="10s">
      <sec:failed-login user="$U"/>
    </win:atleast>
  </eca:event>
  <eca:action>
    <sec:lock-account user="$U"/>
  </eca:action>
</eca:rule>`

func main() {
	sys, err := eca.NewLocal(eca.Config{})
	if err != nil {
		log.Fatal(err)
	}
	sys.Notifier.OnSend(func(n eca.Notification) {
		fmt.Printf("ACTION  %s\n", n.Message)
	})

	// Step 2+3: host the new language's compile and build steps and
	// register the service with it. This is ALL it takes — the engine and GRH stay
	// untouched.
	winService := services.NewDetectorHost(sys.Stream, &services.Deliverer{Local: sys.Engine.OnDetection}, winlang.Language)
	defer winService.Close()
	if err := sys.GRH.Register(grh.Descriptor{
		Language:       winlang.NS,
		Name:           "sliding-window counting language",
		Kinds:          []ruleml.ComponentKind{ruleml.EventComponent},
		FrameworkAware: true,
		Local:          winService,
		Compile:        winService.Compile,
	}); err != nil {
		log.Fatal(err)
	}

	rule, err := eca.ParseRule(lockoutRule)
	if err != nil {
		log.Fatal(err)
	}
	if err := sys.Engine.Register(rule); err != nil {
		log.Fatal(err)
	}

	fail := func(user string, at int64) {
		e := xmltree.NewElement(secNS, "failed-login")
		e.SetAttr("", "user", user)
		fmt.Printf("event: failed login by %s (t=%ds)\n", user, at)
		sys.Stream.Publish(eca.Event{Payload: e, Time: time.Unix(at, 0)})
	}

	fmt.Println("--- mallory hammers the login, peppered with alice's one typo ---")
	fail("mallory", 1)
	fail("alice", 2)
	fail("mallory", 3)
	fail("mallory", 5) // third within 10s → lock
	fail("alice", 50)  // far apart: never locks
	fail("alice", 200)

	st := sys.Engine.Stats()
	fmt.Printf("\nstats: %d instances, %d fired — only mallory got locked\n",
		st.InstancesCreated, st.InstancesCompleted)
}
