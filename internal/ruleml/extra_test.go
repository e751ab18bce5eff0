package ruleml

import (
	"strings"
	"testing"

	"repro/internal/protocol"
)

func TestVariableWrappedEvent(t *testing.T) {
	src := `<eca:rule xmlns:eca="` + protocol.ECANS + `" xmlns:t="http://t/" id="ve">
	  <eca:variable name="Evt">
	    <eca:event><t:ping from="$F"/></eca:event>
	  </eca:variable>
	  <eca:action><t:echo f="$F">$Evt</t:echo></eca:action>
	</eca:rule>`
	r := MustParse(src)
	if r.Event.Variable != "Evt" || r.Event.Kind != EventComponent {
		t.Fatalf("event = %+v", r.Event)
	}
	if err := Validate(r, nil); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// A second event inside eca:variable is still rejected.
	dup := `<eca:rule xmlns:eca="` + protocol.ECANS + `" xmlns:t="http://t/" id="d">
	  <eca:event><t:a/></eca:event>
	  <eca:variable name="E"><eca:event><t:b/></eca:event></eca:variable>
	  <eca:action><t:c/></eca:action>
	</eca:rule>`
	if _, err := ParseString(dup); err == nil {
		t.Error("two events (one wrapped) should be rejected")
	}
}

func TestMultipleTestsInterleaved(t *testing.T) {
	src := `<eca:rule xmlns:eca="` + protocol.ECANS + `" xmlns:t="http://t/" id="m">
	  <eca:event><t:e a="$A" b="$B"/></eca:event>
	  <eca:test>$A > 1</eca:test>
	  <eca:query binds="C"><eca:opaque language="l">q($A, $C)</eca:opaque></eca:query>
	  <eca:test>$C != $B</eca:test>
	  <eca:action><t:act c="$C"/></eca:action>
	</eca:rule>`
	r := MustParse(src)
	if len(r.Steps) != 3 {
		t.Fatalf("steps = %d", len(r.Steps))
	}
	kinds := []ComponentKind{r.Steps[0].Kind, r.Steps[1].Kind, r.Steps[2].Kind}
	if kinds[0] != TestComponent || kinds[1] != QueryComponent || kinds[2] != TestComponent {
		t.Errorf("kinds = %v", kinds)
	}
	if r.Steps[0].ID != "test[1]" || r.Steps[2].ID != "test[2]" {
		t.Errorf("ids = %s, %s", r.Steps[0].ID, r.Steps[2].ID)
	}
	if err := Validate(r, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMultipleActions(t *testing.T) {
	src := `<eca:rule xmlns:eca="` + protocol.ECANS + `" xmlns:t="http://t/" id="ma">
	  <eca:event><t:e x="$X"/></eca:event>
	  <eca:action><t:first x="$X"/></eca:action>
	  <eca:action><t:second x="$X"/></eca:action>
	</eca:rule>`
	r := MustParse(src)
	if len(r.Actions) != 2 || r.Actions[1].ID != "action[2]" {
		t.Fatalf("actions = %+v", r.Actions)
	}
}

func TestAnalyzerScansNestedExpression(t *testing.T) {
	src := `<eca:rule xmlns:eca="` + protocol.ECANS + `" xmlns:t="http://t/" id="n">
	  <eca:event>
	    <t:composite>
	      <t:part a="$A"/>
	      <t:part b="$B">$C</t:part>
	    </t:composite>
	  </eca:event>
	  <eca:action><t:act a="$A" b="$B" c="$C"/></eca:action>
	</eca:rule>`
	r := MustParse(src)
	a := scan(r.Event)
	if got := strings.Join(a.Binds, ","); got != "A,B,C" {
		t.Errorf("event binds = %q", got)
	}
	if err := Validate(r, nil); err != nil {
		t.Fatal(err)
	}
}

func TestValidateJoinUseInQuery(t *testing.T) {
	// A query reusing an event variable as a join variable is fine; using
	// a never-bound variable is not.
	ok := `<eca:rule xmlns:eca="` + protocol.ECANS + `" xmlns:t="http://t/" id="ok">
	  <eca:event><t:e x="$X"/></eca:event>
	  <eca:query binds="Y"><eca:opaque language="l">q($X, $Y)</eca:opaque></eca:query>
	  <eca:action><t:a/></eca:action>
	</eca:rule>`
	if err := Validate(MustParse(ok), nil); err != nil {
		t.Fatal(err)
	}
	bad := strings.Replace(ok, "q($X, $Y)", "q($Z, $Y)", 1)
	if err := Validate(MustParse(bad), nil); err == nil {
		t.Error("unbound join variable should fail")
	}
}

func TestOpaqueServiceOnlyAddressing(t *testing.T) {
	// uri without language is legal (directly addressed service).
	src := `<eca:rule xmlns:eca="` + protocol.ECANS + `" xmlns:t="http://t/" id="svc">
	  <eca:event><t:e/></eca:event>
	  <eca:query binds="V"><eca:opaque uri="http://node/q">//v</eca:opaque></eca:query>
	  <eca:action><t:a v="$V"/></eca:action>
	</eca:rule>`
	r := MustParse(src)
	if r.Steps[0].Service != "http://node/q" || r.Steps[0].Language != "" {
		t.Fatalf("component = %+v", r.Steps[0])
	}
}
