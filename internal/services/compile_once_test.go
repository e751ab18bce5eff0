package services_test

import (
	"net/http/httptest"
	"testing"

	"repro/internal/engine"
	"repro/internal/events"
	"repro/internal/grh"
	"repro/internal/protocol"
	"repro/internal/ruleml"
	"repro/internal/services"
	"repro/internal/snoop"
	"repro/internal/winlang"
	"repro/internal/xmltree"
)

// countingHost hosts lang on a stream of its own, counting its compiles
// into n.
func countingHost[F any](lang events.Language[F]) func(n *int) *services.DetectorHost {
	return func(n *int) *services.DetectorHost {
		counted := lang
		counted.Compile = func(expr *xmltree.Node) (F, error) {
			*n++
			return lang.Compile(expr)
		}
		return services.NewDetectorHost(events.NewStream(), &services.Deliverer{Local: func(*protocol.Answer) {}}, counted)
	}
}

// TestEventComponentCompiledOnce: registering a rule compiles its event
// component once. In process the engine compiles it with the host's
// Compile and the host builds its detector from that form; over the wire
// the host compiles the expression it is sent, once, and the engine its
// own copy, once.
func TestEventComponentCompiledOnce(t *testing.T) {
	for _, c := range []struct {
		name, ns, event string
		host            func(n *int) *services.DetectorHost
	}{
		{"atomic", services.MatcherNS, `<t:a xmlns:t="http://t/" p="$P"/>`, countingHost(services.AtomicEvents)},
		{"snoop", snoop.NS, `<snoop:seq xmlns:snoop="` + snoop.NS + `" xmlns:t="http://t/">
			<snoop:event><t:a p="$P"/></snoop:event><snoop:event><t:b p="$P"/></snoop:event></snoop:seq>`,
			countingHost(services.SnoopEvents(nil))},
		{"winlang", winlang.NS, `<win:atleast xmlns:win="` + winlang.NS + `" xmlns:t="http://t/" n="2" within="1h"><t:a p="$P"/></win:atleast>`,
			countingHost(winlang.Language)},
	} {
		rule := func() *ruleml.Rule {
			return ruleml.MustParse(`<eca:rule xmlns:eca="` + protocol.ECANS + `" xmlns:t="http://t/" id="r">
			  <eca:event>` + c.event + `</eca:event>
			  <eca:action><t:p p="$P"/></eca:action>
			</eca:rule>`)
		}
		register := func(d grh.Descriptor) {
			t.Helper()
			g := grh.New()
			d.Language, d.FrameworkAware = c.ns, true
			if err := g.Register(d); err != nil {
				t.Fatal(err)
			}
			g.SetDefault(ruleml.EventComponent, c.ns)
			if err := engine.New(g).Register(rule()); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		}

		n := 0
		h := c.host(&n)
		register(grh.Descriptor{Local: h, Compile: h.Compile})
		if n != 1 || h.Registrations() != 1 {
			t.Errorf("%s in process: %d compiles, %d registrations; want 1 and 1", c.name, n, h.Registrations())
		}

		engineN, hostN := 0, 0
		local, remote := c.host(&engineN), c.host(&hostN)
		srv := httptest.NewServer(services.Handler(remote))
		register(grh.Descriptor{Endpoint: srv.URL, Compile: local.Compile})
		srv.Close()
		if engineN != 1 || hostN != 1 || remote.Registrations() != 1 {
			t.Errorf("%s over the wire: engine %d, host %d compiles, %d registrations; want 1, 1 and 1", c.name, engineN, hostN, remote.Registrations())
		}
	}
}
