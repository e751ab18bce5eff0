package events

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bindings"
	"repro/internal/xmltree"
)

// --- generators --------------------------------------------------------------------

const genNS = "urn:gen"

var (
	genAttrs    = []string{"p", "q", "r"}
	genKidNames = []string{"x", "y"}
	// Attribute values of generated templates: literals, variables, the
	// same variables padded with whitespace, and "$" alone (a literal).
	genPatVals = []string{"1", "2", "$A", "$B", " $A ", "$B ", "$"}
	// Own text of generated templates, likewise; whitespace-only text is no
	// test at all.
	genPatTexts = []string{"", "", "1", "t", "$A", " $B ", "$", "  "}
	genEvVals   = []string{"1", "2"}
)

// genTemplate builds a random pattern template element named name: up to
// three attributes, some in the urn:gen namespace, namespace declarations
// (one of them with a value that looks like a variable), own text that may
// be split into two text nodes around the children, and up to two levels
// of repeated children.
func genTemplate(r *rand.Rand, space, name string, depth int) *xmltree.Node {
	n := xmltree.NewElement(space, name)
	if r.Intn(3) == 0 {
		n.SetAttr("xmlns", "g", genNS)
	}
	if r.Intn(4) == 0 {
		n.SetAttr("xmlns", "v", "$NS")
	}
	if r.Intn(6) == 0 {
		n.SetAttr("", "xmlns", "$Default")
	}
	for _, a := range genAttrs {
		if r.Intn(2) == 0 {
			space := ""
			if r.Intn(4) == 0 {
				space = genNS
			}
			n.SetAttr(space, a, genPatVals[r.Intn(len(genPatVals))])
		}
	}
	txt := genPatTexts[r.Intn(len(genPatTexts))]
	split := 0
	if len(txt) > 1 && r.Intn(3) == 0 {
		split = 1 + r.Intn(len(txt)-1)
	}
	if txt != "" {
		n.AppendText(txt[:len(txt)-split])
	}
	if depth > 0 {
		for i := r.Intn(3); i > 0; i-- {
			n.Append(genTemplate(r, "", genKidNames[r.Intn(len(genKidNames))], depth-1))
		}
	}
	if split > 0 {
		n.AppendText(txt[len(txt)-split:])
	}
	return n
}

// genEventFor instantiates a template as an event that is likely, not
// certain, to match it: variables become values (each occurrence drawn on
// its own, so a variable bound twice sometimes disagrees), an attribute is
// now and then dropped, changed or moved to the other namespace, and
// children are added and shuffled.
func genEventFor(r *rand.Rand, tmpl *xmltree.Node) *xmltree.Node {
	// val instantiates one template value: a variable becomes an event
	// value, a literal now and then changes into one.
	val := func(pat string) string {
		if _, isVar := refVarName(pat); isVar || r.Intn(8) == 0 {
			return genEvVals[r.Intn(len(genEvVals))]
		}
		return pat
	}
	ev := xmltree.NewElement(tmpl.Name.Space, tmpl.Name.Local)
	for _, a := range tmpl.Attrs {
		if a.IsNamespaceDecl() || r.Intn(12) == 0 {
			continue
		}
		space := a.Name.Space
		if r.Intn(24) == 0 { // same local name, other namespace
			if space == "" {
				space = genNS
			} else {
				space = ""
			}
		}
		ev.SetAttr(space, a.Name.Local, val(a.Value))
	}
	if r.Intn(3) == 0 {
		ev.SetAttr("", "extra", "1")
	}
	if txt := refOwnText(tmpl); txt != "" {
		v := val(txt)
		if r.Intn(3) == 0 {
			v = " " + v + "\n" // own text is compared and bound trimmed
		}
		ev.AppendText(v)
	}
	var kids []*xmltree.Node
	for _, c := range tmpl.ChildElements() {
		kids = append(kids, genEventFor(r, c))
		if r.Intn(3) == 0 { // a sibling the same pattern child also fits
			kids = append(kids, genEventFor(r, c))
		}
	}
	if r.Intn(3) == 0 {
		kids = append(kids, xmltree.NewElement("", genKidNames[r.Intn(len(genKidNames))]))
	}
	r.Shuffle(len(kids), func(i, j int) { kids[i], kids[j] = kids[j], kids[i] })
	for _, k := range kids {
		ev.Append(k)
		if r.Intn(5) == 0 {
			ev.AppendText(" ") // own text in several pieces
		}
	}
	return ev
}

// distinct returns ts without repeated tuples, first occurrences in order.
func distinct(ts []bindings.Tuple) []bindings.Tuple {
	var out []bindings.Tuple
	for _, t := range ts {
		if !slices.ContainsFunc(out, t.Equal) {
			out = append(out, t)
		}
	}
	return out
}

// sameTuples reports whether got, which must hold no tuple twice, is the
// set of tuples in want.
func sameTuples(got, want []bindings.Tuple) bool {
	want = distinct(want)
	if len(distinct(got)) != len(got) || len(got) != len(want) {
		return false
	}
	for _, t := range want {
		if !slices.ContainsFunc(got, t.Equal) {
			return false
		}
	}
	return true
}

// --- compiled Pattern ≡ interpretive reference ------------------------------------

func TestCompiledPatternEquivalentToReference(t *testing.T) {
	r := rand.New(rand.NewSource(20060326))
	var matched, multi, rejected int
	for i := 0; i < 4000; i++ {
		tmpl := genTemplate(r, "", "root", 2)
		p, err := NewPattern(tmpl)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := p.Binds(), refVars(tmpl); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("Vars() = %v, reference %v\npattern %s", got, want, tmpl)
		}
		if p.Name() != tmpl.Name {
			t.Fatalf("Name() = %v, template %v", p.Name(), tmpl.Name)
		}
		for j := 0; j < 4; j++ {
			var ev Event
			if j == 3 { // an event unrelated to the template
				ev = New(genEventFor(r, genTemplate(r, "", "root", 2)))
			} else {
				ev = New(genEventFor(r, tmpl))
			}
			got, want := p.Match(ev), distinct(refMatch(tmpl, ev))
			if !sameTuples(got, want) {
				t.Fatalf("Match = %v, reference %v\npattern %s\nevent   %s", got, want, tmpl, ev.Payload)
			}
			switch {
			case len(want) > 1:
				multi++
			case len(want) == 1:
				matched++
			default:
				rejected++
			}
		}
	}
	// The comparison is vacuous unless the generator reaches all three
	// outcomes often.
	if matched < 500 || multi < 100 || rejected < 500 {
		t.Fatalf("generator coverage too thin: %d single, %d multi-tuple, %d rejected", matched, multi, rejected)
	}
}

// TestCompiledPatternNamedCases pins the shapes the issue names, one each,
// so a generator change cannot silently stop covering them.
func TestCompiledPatternNamedCases(t *testing.T) {
	cases := []struct{ name, pattern, event string }{
		{"repeated children", `<o><i s="$S"/><i s="$T"/></o>`, `<o><i s="1"/><i s="2"/><i s="3"/></o>`},
		{"var text", `<o><i>$Q</i></o>`, `<o><i> 3 </i><i>4</i></o>`},
		{"same variable twice agrees", `<m from="$P" by="$P"/>`, `<m from="a" by="a"/>`},
		{"same variable twice disagrees", `<m from="$P" by="$P"/>`, `<m from="a" by="b"/>`},
		{"same variable in attribute and child text", `<m from="$P"><s>$P</s></m>`, `<m from="a"><s>b</s><s> a </s></m>`},
		{"namespace declarations", `<g:e xmlns:g="urn:gen" xmlns:v="$NS" k="$K"/>`, `<e xmlns="urn:gen" k="1"/>`},
		{"whitespace-padded variable", `<e k=" $K ">  $T  </e>`, `<e k=" 1 "> 2 </e>`},
		{"dollar alone is a literal", `<e k="$"/>`, `<e k="$"/>`},
		{"literal fails after a variable", `<e a="$A" b="2"/>`, `<e a="1" b="3"/>`},
		{"split own text", `<e>re<x/>ady</e>`, `<e><x/>ready</e>`},
	}
	for _, c := range cases {
		tmpl := xmltree.MustParse(c.pattern).Root()
		ev := New(xmltree.MustParse(c.event))
		got, want := mustPattern(c.pattern).Match(ev), refMatch(tmpl, ev)
		if !sameTuples(got, want) {
			t.Errorf("%s: Match = %v, reference %v", c.name, got, want)
		}
	}
}

// --- indexed Matcher ≡ naive reference --------------------------------------------

// TestIndexedMatcherEquivalentToReference runs random register / unregister
// / event / advance operations, in two tenants that share keys, against the
// indexed Matcher and the try-everything reference. Some registrations have
// an Advance. The log of ticks and detections — order, keys, tenants and
// bindings — must equal the reference's: an event ticks its own tenant's
// timed registrations, then detects for its own tenant's patterns.
func TestIndexedMatcherEquivalentToReference(t *testing.T) {
	rootNames := []string{"n0", "n1", "n2"}
	tenants := []string{"", "t1"}
	type entry struct {
		tick        bool
		tenant, key string
		bindings    []bindings.Tuple
	}
	for seed := int64(1); seed <= 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		m, ref := NewMatcher(), &refMatcher{}
		var got, want []entry
		type regKey struct{ tenant, key string }
		live := map[regKey]*xmltree.Node{} // registration → template, to derive events from
		var events, overlapping, ticked, shared int
		for op := 0; op < 600; op++ {
			rk := regKey{tenants[r.Intn(len(tenants))], fmt.Sprintf("k%d", r.Intn(12))}
			tenant, key := rk.tenant, rk.key
			switch x := r.Intn(11); {
			case x < 4:
				// A key registered again usually lands under a different
				// root name: the replace must leave its old place.
				tmpl := genTemplate(r, "", rootNames[r.Intn(len(rootNames))], r.Intn(2))
				p, err := NewPattern(tmpl)
				if err != nil {
					t.Fatal(err)
				}
				d := Detector{
					Names: []xmltree.Name{p.Name(), p.Name()}, // listed twice, fed once
					Feed: func(ev Event) {
						if ts := p.Match(ev); len(ts) > 0 {
							got = append(got, entry{false, tenant, key, ts})
						}
					},
				}
				reg := refRegistration{tenant: tenant, key: key, template: tmpl,
					sink: func(d Detection) { want = append(want, entry{false, tenant, key, d.Bindings}) }}
				if r.Intn(2) == 0 {
					d.Advance = func(time.Time, uint64) { got = append(got, entry{tick: true, tenant: tenant, key: key}) }
					reg.tick = func() { want = append(want, entry{tick: true, tenant: tenant, key: key}) }
				}
				m.Add(tenant, key, d)
				ref.Register(reg)
				live[rk] = tmpl
			case x < 6:
				if a, b := m.Unregister(tenant, key), ref.Unregister(tenant, key); a != b {
					t.Fatalf("seed %d op %d: Unregister(%q, %s) = %v, reference %v", seed, op, tenant, key, a, b)
				}
				delete(live, rk)
			case x < 7:
				// Across tenants Advance's order is unspecified: compare
				// each tenant's ticks.
				got, want = got[:0], want[:0]
				m.Advance(time.Time{}, 0)
				ref.Advance()
				for _, tn := range tenants {
					of := func(es []entry) (keys []string) {
						for _, e := range es {
							if e.tenant == tn {
								keys = append(keys, e.key)
							}
						}
						return keys
					}
					if !slices.Equal(of(got), of(want)) {
						t.Fatalf("seed %d op %d: Advance reached %v in tenant %q, reference %v", seed, op, of(got), tn, of(want))
					}
				}
			default:
				tmpl := live[rk]
				if tmpl == nil {
					tmpl = genTemplate(r, "", rootNames[r.Intn(len(rootNames))], 1)
				}
				payload := genEventFor(r, tmpl)
				for _, a := range genAttrs { // a full event: bucket-mates often match too
					if _, ok := payload.Attr("", a); !ok {
						payload.SetAttr("", a, genEvVals[r.Intn(len(genEvVals))])
					}
				}
				ev := New(payload)
				ev.Tenant = tenant
				got, want = got[:0], want[:0]
				m.OnEvent(ev)
				ref.OnEvent(ev)
				if len(got) != len(want) {
					t.Fatalf("seed %d op %d: %d ticks and detections, reference %d\nevent %s", seed, op, len(got), len(want), ev.Payload)
				}
				detections, ticks := 0, 0
				for i := range want {
					g, w := got[i], want[i]
					if g.tick != w.tick || g.tenant != w.tenant || g.key != w.key || !sameTuples(g.bindings, w.bindings) {
						t.Fatalf("seed %d op %d: entry %d = %+v, reference %+v\nevent %s", seed, op, i, g, w, ev.Payload)
					}
					if w.tenant != tenant {
						t.Fatalf("seed %d op %d: an event of tenant %q reached tenant %q", seed, op, tenant, w.tenant)
					}
					if w.tick {
						ticks++
					} else {
						detections++
					}
				}
				events++
				if detections > 1 {
					overlapping++
				}
				if detections > 0 && ticks > 0 {
					ticked++
				}
				if detections > 0 && live[regKey{tenants[1-slices.Index(tenants, tenant)], key}] != nil {
					shared++
				}
			}
			if m.Len() != ref.Len() {
				t.Fatalf("seed %d op %d: Len() = %d, reference %d", seed, op, m.Len(), ref.Len())
			}
		}
		if overlapping < events/20 || ticked < events/20 || shared < events/20 {
			t.Fatalf("seed %d: of %d events only %d had several detections, %d ticks and detections, %d a key live in both tenants; the contract is barely exercised",
				seed, events, overlapping, ticked, shared)
		}
		for rk := range live {
			m.Unregister(rk.tenant, rk.key)
		}
		if m.Len() != 0 || len(m.byName) != 0 || len(m.byKey) != 0 || len(m.timed) != 0 {
			t.Fatalf("seed %d: after unregistering everything Len() = %d, %d buckets, %d keys, %d timed tenants",
				seed, m.Len(), len(m.byName), len(m.byKey), len(m.timed))
		}
	}
}

// --- ordering contract ----------------------------------------------------------------

// TestMatcherDetectionOrderIsRegistrationOrder registers overlapping
// patterns and checks that their sinks run in registration order, every
// time (the map-based matcher this one replaces ran them in random order).
func TestMatcherDetectionOrderIsRegistrationOrder(t *testing.T) {
	const n = 16
	ev := booking("John Doe", "Munich", "Paris")
	for run := 0; run < 50; run++ {
		m := NewMatcher()
		var order []string
		sink := func(d Detection) { order = append(order, d.Key) }
		var want []string
		for i := 0; i < n; i++ {
			key := fmt.Sprintf("rule-%02d", (i*7)%n) // registration order ≠ key order
			// Overlapping: some bind, some test a literal, all match.
			src := `<t:booking xmlns:t="` + travelNS + `" person="$P"/>`
			if i%3 == 0 {
				src = `<t:booking xmlns:t="` + travelNS + `" to="Paris"/>`
			}
			m.Register(key, mustPattern(src), sink)
			want = append(want, key)
		}
		m.OnEvent(ev)
		if fmt.Sprint(order) != fmt.Sprint(want) {
			t.Fatalf("run %d: sink order %v, registration order %v", run, order, want)
		}
		// Registering a key again moves it to the end.
		m.Register(want[0], mustPattern(`<t:booking xmlns:t="`+travelNS+`" from="$F"/>`), sink)
		want = append(want[1:], want[0])
		order = nil
		m.OnEvent(ev)
		if fmt.Sprint(order) != fmt.Sprint(want) {
			t.Fatalf("run %d: after re-registering, sink order %v, want %v", run, order, want)
		}
	}
}

// --- index shape ------------------------------------------------------------------------

func TestMatcherDropsEmptiedBucket(t *testing.T) {
	m := NewMatcher()
	sink := func(Detection) {}
	m.Register("a1", mustPattern(`<a/>`), sink)
	m.Register("a2", mustPattern(`<a k="$K"/>`), sink)
	m.Register("b1", mustPattern(`<b/>`), sink)
	if len(m.byName) != 2 {
		t.Fatalf("buckets = %d, want 2", len(m.byName))
	}
	m.Unregister("", "a1")
	if len(m.byName) != 2 || len(m.byName[nameKey{name: xmltree.Name{Local: "a"}}]) != 1 {
		t.Fatalf("after removing one of two: %d buckets, bucket a = %d", len(m.byName), len(m.byName[nameKey{name: xmltree.Name{Local: "a"}}]))
	}
	m.Unregister("", "a2")
	if _, ok := m.byName[nameKey{name: xmltree.Name{Local: "a"}}]; ok || len(m.byName) != 1 {
		t.Fatalf("the last pattern of a name left its bucket behind: %d buckets", len(m.byName))
	}
	// Replacing a key under another root name empties its old bucket too.
	m.Register("b1", mustPattern(`<c/>`), sink)
	if _, ok := m.byName[nameKey{name: xmltree.Name{Local: "b"}}]; ok || len(m.byName) != 1 || m.Len() != 1 {
		t.Fatalf("replace under a different name: buckets %d, Len %d", len(m.byName), m.Len())
	}
	if m.Unregister("", "a1") {
		t.Error("unregistering twice should report false")
	}
}

// --- concurrency (run under -race in CI) -------------------------------------------------

// TestMatcherConcurrentRegisterUnregisterOnEvent churns registrations in a
// bucket while events are matched against it: a registration that stays
// must see every event, whatever happens to its bucket-mates.
func TestMatcherConcurrentRegisterUnregisterOnEvent(t *testing.T) {
	const writers, readers, loops = 4, 4, 400
	m := NewMatcher()
	var stable, churned atomic.Int64
	m.Register("stable", mustPattern(`<e n="$N"/>`), func(Detection) { stable.Add(1) })
	pats := []*Pattern{mustPattern(`<e n="1"/>`), mustPattern(`<f/>`), mustPattern(`<e><x/></e>`)}
	ev := xmltree.NewElement("", "e")
	ev.SetAttr("", "n", "1")
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < loops; i++ {
				key := fmt.Sprintf("w%d-%d", w, i%5)
				m.Register(key, pats[i%len(pats)], func(Detection) { churned.Add(1) })
				if i%2 == 1 {
					m.Unregister("", key)
				}
				m.Len()
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < loops; i++ {
				m.OnEvent(New(ev))
			}
		}()
	}
	wg.Wait()
	if got := stable.Load(); got != readers*loops {
		t.Errorf("the stable registration saw %d of %d events", got, readers*loops)
	}
}

// --- scale: cost follows the bucket, not the registrations ---------------------------------

const scaleNS = "urn:bench"

// scaleTemplates returns regs templates shaped like the benchmark's
// rulescale_match rules — ten per element name, told apart by a literal —
// and a key for each.
func scaleTemplates(regs int) (tmpls []*xmltree.Node, keys []string) {
	const perName = 10
	for n := 0; n < regs/perName; n++ {
		for v := 0; v < perName; v++ {
			tmpl := xmltree.NewElement(scaleNS, fmt.Sprintf("e%05d", n))
			tmpl.SetAttr("xmlns", "b", scaleNS)
			tmpl.SetAttr("", "kind", fmt.Sprintf("v%d", v))
			tmpl.SetAttr("", "seq", "$Seq")
			tmpls = append(tmpls, tmpl)
			keys = append(keys, fmt.Sprintf("m%05d-%d", n, v))
		}
	}
	return tmpls, keys
}

// registerAll compiles each template and registers it under its key.
func registerAll(m *Matcher, tmpls []*xmltree.Node, keys []string) {
	for i, tmpl := range tmpls {
		p, err := NewPattern(tmpl)
		if err != nil {
			panic(err)
		}
		m.Register(keys[i], p, func(Detection) {})
	}
}

// scaleMatcher registers regs scaleTemplates and returns an event exactly
// one of them matches and an event whose name nobody registered.
func scaleMatcher(regs int) (m *Matcher, hit, miss Event) {
	m = NewMatcher()
	tmpls, keys := scaleTemplates(regs)
	registerAll(m, tmpls, keys)
	h := xmltree.NewElement(scaleNS, fmt.Sprintf("e%05d", regs/20))
	h.SetAttr("xmlns", "b", scaleNS).SetAttr("", "kind", "v7").SetAttr("", "seq", "42")
	x := xmltree.NewElement(scaleNS, "unregistered")
	x.SetAttr("xmlns", "b", scaleNS).SetAttr("", "kind", "v7").SetAttr("", "seq", "42")
	return m, New(h), New(x)
}

// TestMatcherOnEventAllocationsIgnoreRegistrations is the deterministic
// form of BenchmarkMatcherOnEvent: what one event allocates depends on the
// bucket it falls into, not on how many registrations the matcher holds.
func TestMatcherOnEventAllocationsIgnoreRegistrations(t *testing.T) {
	small, hitSmall, _ := scaleMatcher(10)
	large, hitLarge, missLarge := scaleMatcher(10000)
	if large.Len() != 10000 {
		t.Fatalf("Len() = %d", large.Len())
	}
	if got := testing.AllocsPerRun(200, func() { large.OnEvent(missLarge) }); got != 0 {
		t.Errorf("event with an unregistered name: %v allocs/event at 10000 registrations, want 0", got)
	}
	atSmall := testing.AllocsPerRun(200, func() { small.OnEvent(hitSmall) })
	atLarge := testing.AllocsPerRun(200, func() { large.OnEvent(hitLarge) })
	if atSmall != atLarge || atLarge == 0 {
		t.Errorf("matching event: %v allocs/event at 10000 registrations, %v at 10; want equal and non-zero", atLarge, atSmall)
	}
}

// maxRegistrationHeap bounds the live heap one rulescale_match-shaped
// pattern and its matcher registration keep, in bytes: about 395 with
// Go 1.24. A pattern of separately allocated elements with a literal and a
// bind slice each, registered beside a copy of its Detector, kept about
// 565.
const maxRegistrationHeap = 450

// TestMatcherRetainedHeap compiles and registers 10⁴ rulescale_match-shaped
// patterns and bounds the live heap each pattern and registration keep:
// the event layer's share of a registered rule's memory.
func TestMatcherRetainedHeap(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds shadow memory to every allocation")
	}
	const regs = 10000
	live := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	tmpls, keys := scaleTemplates(regs)
	m := NewMatcher()
	before := live()
	registerAll(m, tmpls, keys)
	perReg := float64(live()-before) / regs
	if m.Len() != regs {
		t.Fatalf("Len() = %d, want %d", m.Len(), regs)
	}
	runtime.KeepAlive(m)
	runtime.KeepAlive(tmpls)
	t.Logf("%.0f B of live heap per pattern and registration", perReg)
	if perReg > maxRegistrationHeap {
		t.Fatalf("%.0f B of live heap per pattern and registration, limit %d", perReg, maxRegistrationHeap)
	}
}

func BenchmarkMatcherOnEvent(b *testing.B) {
	for _, c := range []struct {
		name string
		regs int
	}{{"regs=10", 10}, {"regs=1e3", 1000}, {"regs=1e4", 10000}, {"regs=1e5", 100000}} {
		b.Run(c.name, func(b *testing.B) {
			m, hit, _ := scaleMatcher(c.regs)
			runtime.GC() // the set-up garbage is not the measured loop's to collect
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.OnEvent(hit)
			}
		})
	}
}
