package engine_test

import (
	"bytes"
	"log/slog"
	"strings"
	"testing"

	"repro/internal/bindings"
	"repro/internal/engine"
	"repro/internal/grh"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/ruleml"
	"repro/internal/services"
)

func newNoopGRH(t *testing.T) *grh.GRH {
	t.Helper()
	g := grh.New()
	noop := grh.ServiceFunc(func(*protocol.Request) (*protocol.Answer, error) {
		return &protocol.Answer{}, nil
	})
	for ns, kind := range map[string]ruleml.ComponentKind{
		services.MatcherNS: ruleml.EventComponent,
		services.ActionNS:  ruleml.ActionComponent,
	} {
		if err := g.Register(grh.Descriptor{
			Language: ns, Kinds: []ruleml.ComponentKind{kind},
			FrameworkAware: true, Local: noop,
		}); err != nil {
			t.Fatal(err)
		}
		g.SetDefault(kind, ns)
	}
	return g
}

// TestEngineStructuredLogging: WithLog emits instance-scoped records
// whose trace_id matches the recorded trace, and the detection feeds the
// event-stage latency histogram.
func TestEngineStructuredLogging(t *testing.T) {
	hub := obs.NewHub()
	var buf bytes.Buffer
	e := engine.New(newNoopGRH(t), engine.WithObs(hub),
		engine.WithLog(obs.NewLogger(&buf, "json", slog.LevelDebug)))
	rule := ruleml.MustParse(`<eca:rule xmlns:eca="` + protocol.ECANS + `" xmlns:t="http://t/" id="sl">
	  <eca:event><t:e x="$X"/></eca:event>
	  <eca:action><t:a x="$X"/></eca:action>
	</eca:rule>`)
	if err := e.Register(rule); err != nil {
		t.Fatal(err)
	}
	e.OnDetection(&protocol.Answer{RuleID: "sl", Rows: []protocol.AnswerRow{
		{Tuple: bindings.MustTuple("X", bindings.Str("1"))},
	}})
	e.Wait()

	ev := hub.Metrics().HistogramVec("engine_step_seconds", "", nil, "kind").With("event")
	if got := ev.Count(); got != 1 {
		t.Errorf("engine_step_seconds{kind=event} count = %d, want 1", got)
	}
	traces := hub.Traces().Snapshot()
	if len(traces) != 1 {
		t.Fatalf("traces = %d", len(traces))
	}
	id := traces[0].ID
	out := buf.String()
	for _, msg := range []string{"rule registered", "rule instance created", "action executed", "rule instance completed"} {
		if !strings.Contains(out, msg) {
			t.Errorf("log missing %q:\n%s", msg, out)
		}
	}
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.Contains(line, "rule instance") && !strings.Contains(line, `"trace_id":"`+id+`"`) {
			t.Errorf("instance record without trace_id %q: %s", id, line)
		}
	}
}
