package eca_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	eca "repro"
	"repro/internal/domain/travel"
	"repro/internal/grh"
	"repro/internal/ruleml"
	"repro/internal/services"
	"repro/internal/winlang"
)

// TestRulePlans pins the one analysis registration makes of the Fig. 4
// rule and of every example rule: each component's binds and uses, as the
// compiled forms report them (or, for a form that reports nothing, as the
// textual scan finds them), and the names the event listens to. The
// example rules are read from the examples' source, so an edit there
// shows here.
func TestRulePlans(t *testing.T) {
	sys, err := eca.NewLocal(eca.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	win := services.NewDetectorHost(sys.Stream, &services.Deliverer{Local: sys.Engine.OnDetection}, winlang.Language)
	defer win.Close()
	if err := sys.GRH.Register(grh.Descriptor{Language: winlang.NS, Kinds: []ruleml.ComponentKind{ruleml.EventComponent},
		FrameworkAware: true, Local: win, Compile: win.Compile}); err != nil {
		t.Fatal(err)
	}
	rules := map[string]string{"car-rental": travel.RuleXML("http://store/", "http://xq/")}
	for _, ex := range []struct{ name, konst string }{
		{"quickstart", "ruleXML"},
		{"composite", "churnRule"},
		{"composite", "noShowRule"},
		{"federation", "ruleXML"},
		{"extension", "lockoutRule"},
	} {
		rules[ex.name+"."+ex.konst] = exampleConst(t, ex.name, ex.konst, map[string]string{"winlang.NS": winlang.NS})
	}
	// Each row is one component: kind binds / uses, variables sorted as
	// the form reports them, "-" for none; names are the event's, "*"
	// for every name.
	want := map[string][]string{
		"car-rental": {
			"names {" + travel.NS + "}booking",
			"event Dest Person / -",
			"query - / Person",
			"query - / OwnCar",
			"query Class Avail / Dest",
			"action - / Avail Class OwnCar Person",
		},
		"quickstart.ruleXML": {
			"names {http://example.org/monitoring}reading",
			"event S V / -",
			"test - / V",
			"action - / S V",
		},
		"composite.churnRule": {
			"names {http://example.org/airline}booking {http://example.org/airline}cancellation",
			"event F P / -",
			"action - / F P",
		},
		"composite.noShowRule": {
			"names {http://example.org/airline}booking {http://example.org/airline}checkin {http://example.org/airline}cancellation {http://example.org/airline}boarding",
			"event F P / -",
			"action - / F P",
		},
		"federation.ruleXML": {
			"names {http://example.org/shop}order {http://example.org/shop}payment",
			"event Cust Item / -",
			"query Item Supplier / Item Supplier",
			"query - / Supplier Item",
			"test - / Stock",
			"action - / Cust Item Supplier",
			"action - / Cust Item Supplier",
		},
		"extension.lockoutRule": {
			"names {http://example.org/security}failed-login",
			"event U / -",
			"action - / U",
		},
	}
	for id, src := range rules {
		rule, err := ruleml.ParseString(src)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		plan, vars, err := sys.Engine.Analyze(rule)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		got := []string{"names " + names(plan.Names())}
		for i, c := range rule.Components() {
			a := vars[i]
			got = append(got, fmt.Sprintf("%s %s / %s", c.Kind, list(a.Binds), list(a.Uses)))
		}
		if strings.Join(got, "\n") != strings.Join(want[id], "\n") {
			t.Errorf("%s plan:\n%s\nwant:\n%s", id, strings.Join(got, "\n"), strings.Join(want[id], "\n"))
		}
	}
}

func list(vars []string) string {
	if len(vars) == 0 {
		return "-"
	}
	return strings.Join(vars, " ")
}

func names[N fmt.Stringer](ns []N) string {
	if ns == nil {
		return "*"
	}
	out := make([]string, len(ns))
	for i, n := range ns {
		out[i] = n.String()
	}
	return strings.Join(out, " ")
}

// exampleConst evaluates the string constant name declared in
// examples/<example>/main.go: string literals, the file's other constants
// and the qualified identifiers in ext, joined by +.
func exampleConst(t *testing.T, example, name string, ext map[string]string) string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), filepath.Join("examples", example, "main.go"), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	consts := map[string]ast.Expr{}
	for _, d := range f.Decls {
		if g, ok := d.(*ast.GenDecl); ok && g.Tok == token.CONST {
			for _, spec := range g.Specs {
				vs := spec.(*ast.ValueSpec)
				for i, id := range vs.Names {
					consts[id.Name] = vs.Values[i]
				}
			}
		}
	}
	var eval func(e ast.Expr) string
	eval = func(e ast.Expr) string {
		switch x := e.(type) {
		case *ast.BasicLit:
			s, err := strconv.Unquote(x.Value)
			if err != nil {
				t.Fatal(err)
			}
			return s
		case *ast.BinaryExpr:
			return eval(x.X) + eval(x.Y)
		case *ast.Ident:
			if v, ok := consts[x.Name]; ok {
				return eval(v)
			}
		case *ast.SelectorExpr:
			if pkg, ok := x.X.(*ast.Ident); ok {
				if v, ok := ext[pkg.Name+"."+x.Sel.Name]; ok {
					return v
				}
			}
		}
		t.Fatalf("%s: cannot evaluate %T in constant %s", example, e, name)
		return ""
	}
	v, ok := consts[name]
	if !ok {
		t.Fatalf("examples/%s declares no constant %s", example, name)
	}
	return eval(v)
}
