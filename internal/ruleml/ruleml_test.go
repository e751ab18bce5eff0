package ruleml

import (
	"strings"
	"testing"

	"repro/internal/protocol"
)

// sampleRule is the outline of the paper's Fig. 4 car-rental rule.
const sampleRule = `<eca:rule xmlns:eca="http://www.semwebtech.org/languages/2006/eca-ml"
	xmlns:travel="http://example.org/travel"
	xmlns:xq="http://www.semwebtech.org/languages/2006/xquery"
	id="car-rental">
  <eca:event>
    <travel:booking person="$Person" to="$Dest"/>
  </eca:event>
  <eca:variable name="OwnCar">
    <eca:query>
      <xq:query>for $c in doc('cars.xml')//owner[@name=$Person]/car return $c/model/text()</xq:query>
    </eca:query>
  </eca:variable>
  <eca:variable name="Class">
    <eca:query>
      <eca:opaque language="http://www.semwebtech.org/languages/2006/xquery"
                  uri="http://localhost:0/exist">//entry[@model='$OwnCar']/@class/string(.)</eca:opaque>
    </eca:query>
  </eca:variable>
  <eca:query binds="Avail Class">
    <xq:query>for $e in doc('avail.xml')//car[@city=$Dest]
      return &lt;log:answer xmlns:log="http://www.semwebtech.org/languages/2006/logic-ml"&gt;x&lt;/log:answer&gt;</xq:query>
  </eca:query>
  <eca:test>$Class != ''</eca:test>
  <eca:action>
    <travel:inform person="$Person" car="$Avail"/>
  </eca:action>
</eca:rule>`

func TestParseSampleRule(t *testing.T) {
	r := MustParse(sampleRule)
	if r.ID != "car-rental" {
		t.Errorf("id = %q", r.ID)
	}
	if r.Event.Kind != EventComponent || r.Event.Expression == nil {
		t.Fatalf("event = %+v", r.Event)
	}
	if r.Event.Language != "http://example.org/travel" {
		t.Errorf("event language = %q", r.Event.Language)
	}
	if len(r.Steps) != 4 {
		t.Fatalf("steps = %d, want 4 (3 queries + test)", len(r.Steps))
	}
	if r.Steps[0].Variable != "OwnCar" || r.Steps[0].Kind != QueryComponent {
		t.Errorf("step 0 = %+v", r.Steps[0])
	}
	if !r.Steps[1].Opaque || r.Steps[1].Variable != "Class" {
		t.Errorf("step 1 = %+v", r.Steps[1])
	}
	if r.Steps[1].Service == "" || r.Steps[1].Language == "" {
		t.Errorf("opaque addressing = %+v", r.Steps[1])
	}
	if got := strings.Join(r.Steps[2].Declares, ","); got != "Avail,Class" {
		t.Errorf("declares = %q", got)
	}
	if r.Steps[3].Kind != TestComponent || r.Steps[3].Text != "$Class != ''" {
		t.Errorf("test = %+v", r.Steps[3])
	}
	if len(r.Actions) != 1 || r.Actions[0].Kind != ActionComponent {
		t.Fatalf("actions = %+v", r.Actions)
	}
	if r.Steps[0].ID != "query[1]" || r.Steps[2].ID != "query[3]" || r.Steps[3].ID != "test[1]" {
		t.Errorf("ids = %v %v %v", r.Steps[0].ID, r.Steps[2].ID, r.Steps[3].ID)
	}
}

func TestValidateSampleRule(t *testing.T) {
	r := MustParse(sampleRule)
	if err := Validate(r, nil); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestValidateUseBeforeBind(t *testing.T) {
	bad := `<eca:rule xmlns:eca="` + protocol.ECANS + `" id="bad">
	  <eca:event><e x="$X"/></eca:event>
	  <eca:action><act who="$Nobody"/></eca:action>
	</eca:rule>`
	r := MustParse(bad)
	err := Validate(r, nil)
	if err == nil || !strings.Contains(err.Error(), "$Nobody") {
		t.Fatalf("expected use-before-bind error, got %v", err)
	}
}

func TestValidateSameComponentBinding(t *testing.T) {
	// A component may use a variable it declares itself.
	src := `<eca:rule xmlns:eca="` + protocol.ECANS + `" id="same">
	  <eca:event><e x="$X"/></eca:event>
	  <eca:query binds="Y">
	    <eca:opaque language="lp">rel($X, $Y)</eca:opaque>
	  </eca:query>
	  <eca:action><act y="$Y"/></eca:action>
	</eca:rule>`
	if err := Validate(MustParse(src), nil); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestFLWORInternalVariables(t *testing.T) {
	// $c is FLWOR-internal; only $Person is a free use.
	src := `<eca:rule xmlns:eca="` + protocol.ECANS + `" xmlns:xq="http://xq/" id="f">
	  <eca:event><e person="$Person"/></eca:event>
	  <eca:query>
	    <xq:query>for $c in doc('d')//x[@p=$Person] return $c</xq:query>
	  </eca:query>
	  <eca:action><act p="$Person"/></eca:action>
	</eca:rule>`
	if err := Validate(MustParse(src), nil); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestParseErrors(t *testing.T) {
	eca := protocol.ECANS
	cases := []struct{ name, src string }{
		{"wrong root", `<notarule/>`},
		{"no event", `<eca:rule xmlns:eca="` + eca + `"><eca:action><a/></eca:action></eca:rule>`},
		{"no action", `<eca:rule xmlns:eca="` + eca + `"><eca:event><e/></eca:event></eca:rule>`},
		{"two events", `<eca:rule xmlns:eca="` + eca + `"><eca:event><e/></eca:event><eca:event><e/></eca:event><eca:action><a/></eca:action></eca:rule>`},
		{"nameless variable", `<eca:rule xmlns:eca="` + eca + `"><eca:event><e/></eca:event><eca:variable><eca:query><q/></eca:query></eca:variable><eca:action><a/></eca:action></eca:rule>`},
		{"variable without query", `<eca:rule xmlns:eca="` + eca + `"><eca:event><e/></eca:event><eca:variable name="V"><eca:test>x</eca:test></eca:variable><eca:action><a/></eca:action></eca:rule>`},
		{"empty opaque", `<eca:rule xmlns:eca="` + eca + `"><eca:event><e/></eca:event><eca:query><eca:opaque language="l"></eca:opaque></eca:query><eca:action><a/></eca:action></eca:rule>`},
		{"opaque without language", `<eca:rule xmlns:eca="` + eca + `"><eca:event><e/></eca:event><eca:query><eca:opaque>q</eca:opaque></eca:query><eca:action><a/></eca:action></eca:rule>`},
		{"two expressions", `<eca:rule xmlns:eca="` + eca + `"><eca:event><e/><f/></eca:event><eca:action><a/></eca:action></eca:rule>`},
		{"unknown element", `<eca:rule xmlns:eca="` + eca + `"><eca:event><e/></eca:event><eca:frobnicate/><eca:action><a/></eca:action></eca:rule>`},
	}
	for _, c := range cases {
		if _, err := ParseString(c.src); err == nil {
			t.Errorf("%s: expected parse error", c.name)
		}
	}
}

func TestPlainTextTestComponent(t *testing.T) {
	src := `<eca:rule xmlns:eca="` + protocol.ECANS + `" id="t">
	  <eca:event><e n="$N"/></eca:event>
	  <eca:test>$N > 3</eca:test>
	  <eca:action><a n="$N"/></eca:action>
	</eca:rule>`
	r := MustParse(src)
	if len(r.Steps) != 1 || r.Steps[0].Kind != TestComponent || !r.Steps[0].Opaque {
		t.Fatalf("steps = %+v", r.Steps)
	}
	if err := Validate(r, nil); err != nil {
		t.Fatal(err)
	}
}

func TestComponentsOrder(t *testing.T) {
	r := MustParse(sampleRule)
	cs := r.Components()
	if len(cs) != 6 {
		t.Fatalf("components = %d", len(cs))
	}
	if cs[0].Kind != EventComponent || cs[5].Kind != ActionComponent {
		t.Errorf("order = %v … %v", cs[0].Kind, cs[5].Kind)
	}
}

// TestCustomAnalyzer: Validate checks the analyses it is given, so a
// language that knows what its component binds (here a compiled form of an
// "lp" query) admits a use the textual scan rejects.
func TestCustomAnalyzer(t *testing.T) {
	src := `<eca:rule xmlns:eca="` + protocol.ECANS + `" id="c">
	  <eca:event><e/></eca:event>
	  <eca:query><eca:opaque language="lp">magic()</eca:opaque></eca:query>
	  <eca:action><a x="$FromLP"/></eca:action>
	</eca:rule>`
	r := MustParse(src)
	if err := Validate(r, nil); err == nil {
		t.Fatal("the scan should reject $FromLP")
	}
	var vars []VarAnalysis
	for _, c := range r.Components() {
		var form any
		if c.Kind == QueryComponent && c.Language == "lp" {
			form = lpForm{}
		}
		vars = append(vars, Analyze(c, form))
	}
	if err := Validate(r, vars); err != nil {
		t.Fatalf("custom analysis: %v", err)
	}
}

// lpForm is a compiled form that binds FromLP and uses nothing.
type lpForm struct{}

func (lpForm) Binds() []string { return []string{"FromLP"} }
