package services

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"

	"repro/internal/datalog"
	"repro/internal/protocol"
	"repro/internal/rdf"
	"repro/internal/ruleml"
	"repro/internal/snoop"
	"repro/internal/xmltree"
	"repro/internal/xpath"
	"repro/internal/xq"
)

// countCompiles makes m count its compiles into n.
func countCompiles[T any](m *memo[T], n *int) {
	compile := m.compile
	m.compile = func(text string) (T, error) {
		*n++
		return compile(text)
	}
}

// getQuery GETs ?query=text from h and returns the status and body.
func getQuery(h http.Handler, text string) (int, string) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/?query="+url.QueryEscape(text), nil))
	return rec.Code, rec.Body.String()
}

// opaqueStandIns are the two framework-unaware nodes over small documents,
// each with a query text that answers 200 on it.
func opaqueStandIns() (*OpaqueXMLStore, *OpaqueXQueryNode) {
	docs := NewDocStore()
	docs.Put("d", xmltree.MustParse(`<d><e n="1"/><e n="2"/></d>`))
	return NewOpaqueXMLStore(xmltree.MustParse(`<d><e n="1"/><e n="2"/></d>`), nil), NewOpaqueXQueryNode(docs, nil)
}

// TestOpaqueMemo: a stand-in compiles each distinct text once, keeps at
// most memoBound of them, and keeps no text that does not compile.
func TestOpaqueMemo(t *testing.T) {
	store, node := opaqueStandIns()
	var storeCompiles, nodeCompiles int
	countCompiles(store.queries, &storeCompiles)
	countCompiles(node.queries, &nodeCompiles)
	for _, c := range []struct {
		name     string
		h        http.Handler
		compiles *int
		size     func() int
		text     func(i int) string // a text that answers 200
	}{
		{"opaque store", store, &storeCompiles, func() int { return len(store.queries.compiled) },
			func(i int) string { return fmt.Sprintf("count(//e[@n=%d])", i) }},
		{"opaque xquery", node, &nodeCompiles, func() int { return len(node.queries.compiled) },
			func(i int) string { return fmt.Sprintf("for $e in doc('d')//e[@n=%d] return <r>{$e}</r>", i) }},
	} {
		for round := 0; round < 100; round++ {
			for i := 1; i <= 3; i++ {
				if code, body := getQuery(c.h, c.text(i)); code != http.StatusOK {
					t.Fatalf("%s: GET %q = %d %s", c.name, c.text(i), code, body)
				}
			}
		}
		if *c.compiles != 3 || c.size() != 3 {
			t.Errorf("%s: 3 texts sent 100 times each: %d compiles, memo of %d, want 3 and 3", c.name, *c.compiles, c.size())
		}
		for i := 0; i < 10000; i++ {
			getQuery(c.h, c.text(i))
			if c.size() > memoBound {
				t.Fatalf("%s: memo of %d texts after %d distinct texts, bound %d", c.name, c.size(), i+1, memoBound)
			}
		}
		*c.compiles = 0
		size := c.size()
		for i := 0; i < 5; i++ {
			if code, _ := getQuery(c.h, "//e[@n="); code != http.StatusBadRequest {
				t.Errorf("%s: uncompilable text = %d, want 400", c.name, code)
			}
		}
		if *c.compiles != 5 || c.size() != size {
			t.Errorf("%s: uncompilable text sent 5 times: %d compiles, memo %d → %d; want 5 compiles and no entry", c.name, *c.compiles, size, c.size())
		}
	}
	long := "count(//e)" + strings.Repeat(" ", maxMemoText)
	if code, _ := getQuery(store, long); code != http.StatusOK {
		t.Fatalf("long text = %d", code)
	}
	if _, kept := store.queries.compiled[long]; kept {
		t.Errorf("a text over maxMemoText bytes was kept")
	}
}

// TestOpaqueMemoConcurrent: concurrent GETs of one text share the memo
// (run with -race).
func TestOpaqueMemoConcurrent(t *testing.T) {
	store, node := opaqueStandIns()
	for _, c := range []struct {
		h    http.Handler
		text string
		want string
	}{
		{store, `//e[@n=2]/@n`, `<results><value>2</value></results>`},
		{node, `for $e in doc('d')//e[@n=2] return <r>{string($e/@n)}</r>`, `<r>2</r>`},
	} {
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if code, body := getQuery(c.h, c.text); code != http.StatusOK || body != c.want {
					t.Errorf("GET %q = %d %s, want 200 %s", c.text, code, body, c.want)
				}
			}()
		}
		wg.Wait()
	}
}

// TestCompileErrorsBounded: an error about a 1 MiB query, or a 1 MiB name
// in a rule, quotes a window of it, in the compilers, the rule, SNOOP and
// Turtle readers, and in a stand-in's 400 body.
func TestCompileErrorsBounded(t *testing.T) {
	mib := strings.Repeat("x", 1<<20)
	_, node := opaqueStandIns()
	for _, c := range []struct {
		name    string
		compile func() error
		want    string
	}{
		{"xq trailing input", func() error { _, err := xq.Compile("1 )" + mib); return err }, "trailing input"},
		{"xpath trailing input", func() error { _, err := xpath.Compile("1 )" + mib); return err }, "after expression"},
		{"datalog trailing input", func() error { _, err := datalog.ParseQuery("p(a) )" + mib); return err }, "trailing input"},
		{"datalog bad number", func() error {
			_, err := datalog.ParseQuery("p(1." + strings.Repeat("1.", 1<<19) + "1)")
			return err
		}, "bad number"},
		{"datalog predicate name", func() error { _, err := datalog.ParseQuery("P" + mib + "(a)"); return err }, "upper-case"},
		{"ruleml variable name", func() error {
			_, err := ruleml.ParseString(`<eca:rule xmlns:eca="` + protocol.ECANS + `"><eca:event><e/></eca:event>` +
				`<eca:variable name="` + mib + `"><eca:action/></eca:variable><eca:action><a/></eca:action></eca:rule>`)
			return err
		}, "must wrap"},
		{"ruleml rule id and variable", func() error {
			r, err := ruleml.ParseString(`<eca:rule xmlns:eca="` + protocol.ECANS + `" id="` + mib + `">` +
				`<eca:event><e/></eca:event><eca:action><a x="$` + mib + `"/></eca:action></eca:rule>`)
			if err != nil {
				return nil
			}
			return ruleml.Validate(r, nil)
		}, "before being bound"},
		{"snoop m attribute", func() error {
			_, err := snoop.ParseXML(xmltree.MustParse(`<any xmlns="` + snoop.NS + `" m="` + mib + `"><a/></any>`).Root())
			return err
		}, "integer m"},
		{"snoop parameter context", func() error { _, err := snoop.ParseContext(mib); return err }, "parameter context"},
		{"turtle undeclared prefix", func() error { _, err := rdf.ParseTurtleString(mib + ":a <b> <c> ."); return err }, "undeclared prefix"},
		{"opaque xquery 400 body", func() error {
			code, body := getQuery(node, "1 )"+mib)
			if code != http.StatusBadRequest {
				return nil
			}
			return fmt.Errorf("%s", body)
		}, "trailing input"},
	} {
		err := c.compile()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %.200v, want one about %q", c.name, err, c.want)
			continue
		}
		if n := len(err.Error()); n >= 1<<10 {
			t.Errorf("%s: %d-byte error, want under 1 KiB", c.name, n)
		}
	}
}
