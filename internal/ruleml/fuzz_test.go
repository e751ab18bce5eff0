package ruleml_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/domain/travel"
	"repro/internal/protocol"
	"repro/internal/ruleml"
	"repro/internal/xmltree"
)

// FuzzParse drives the rule reader behind POST /engine/rules, start-up
// rule files and journal recovery with arbitrary documents. Parsing and
// validating must not panic, whatever the document.
func FuzzParse(f *testing.F) {
	// The Fig. 4 rule and the Figs. 5–11 messages of the figure replay.
	f.Add(travel.RuleXML("http://store/", "http://xq/"))
	run, err := bench.RunScenario()
	if err != nil {
		f.Fatal(err)
	}
	for _, tr := range run.Traces {
		f.Add(tr.Payload)
	}
	run.Cleanup()
	f.Add(`<eca:rule xmlns:eca="` + protocol.ECANS + `" id="r">
	  <eca:variable name="E"><eca:event><a k="$K"/></eca:event></eca:variable>
	  <eca:variable name="Q"><eca:query><eca:opaque language="x">$K</eca:opaque></eca:query></eca:variable>
	  <eca:test>$Q = 1</eca:test>
	  <eca:action><b k="$K"/></eca:action>
	</eca:rule>`)
	f.Fuzz(func(t *testing.T, src string) {
		doc, err := xmltree.ParseString(src)
		if err != nil {
			return
		}
		r, err := ruleml.Parse(doc)
		if err != nil {
			return
		}
		r.Components()
		ruleml.Validate(r, nil)
	})
}
