package system

import (
	"testing"

	"repro/internal/events"
	"repro/internal/protocol"
	"repro/internal/ruleml"
	"repro/internal/services"
	"repro/internal/xmltree"
)

// TestQuerySeesPreviousAction: a query is evaluated against the data as
// the previous action left it (§4.3–4.4). Rule "sell" deletes a car from
// the store; rule "count" counts the cars that remain. Alternating the
// two, every count must be one less than the one before — an answer
// remembered from an earlier, identical dispatch would repeat it.
func TestQuerySeesPreviousAction(t *testing.T) {
	sys, err := NewLocal(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	sys.Store.Put("cars", xmltree.MustParse(`<cars><car id="c1"/><car id="c2"/><car id="c3"/></cars>`))
	for _, src := range []string{
		`<eca:rule xmlns:eca="` + protocol.ECANS + `" xmlns:t="` + tNS + `" xmlns:store="` + services.StoreNS + `" id="sell">
		  <eca:event><t:sell car="$C"/></eca:event>
		  <eca:action><store:delete doc="cars" select="//car[@id='$C']"/></eca:action>
		</eca:rule>`,
		`<eca:rule xmlns:eca="` + protocol.ECANS + `" xmlns:t="` + tNS + `" xmlns:xq="` + services.XQueryNS + `" id="count">
		  <eca:event><t:count/></eca:event>
		  <eca:variable name="N"><eca:query><xq:query>count(doc('cars')//car)</xq:query></eca:query></eca:variable>
		  <eca:action><t:cars n="$N"/></eca:action>
		</eca:rule>`,
	} {
		rule, err := ruleml.ParseString(src)
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.Engine.Register(rule); err != nil {
			t.Fatal(err)
		}
	}
	post := func(local, car string) {
		payload := xmltree.NewElement(tNS, local)
		if car != "" {
			payload.SetAttr("", "car", car)
		}
		sys.Stream.Publish(events.New(payload))
	}
	post("sell", "c1")
	post("count", "")
	post("sell", "c2")
	post("count", "")

	var got []string
	for _, n := range sys.Notifier.Sent() {
		got = append(got, n.Message.AttrValue("", "n"))
	}
	if len(got) != 2 || got[0] != "2" || got[1] != "1" {
		t.Fatalf("car counts after each sale = %v, want [2 1]", got)
	}
}
