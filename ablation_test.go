// Ablation benchmarks for the design choices DESIGN.md calls out:
//
//   - projecting "only the relevant bindings" onto the wire (Section 4.4)
//     vs. shipping the full instance relation;
//   - opaque per-tuple mediation vs. framework-aware batch dispatch as the
//     input relation grows (the crossover is at exactly one tuple);
//   - the hash join vs. a naive nested-loop join.
package eca_test

import (
	"fmt"
	"net/http/httptest"
	"testing"

	"repro/internal/bindings"
	"repro/internal/domain/travel"
	"repro/internal/grh"
	"repro/internal/protocol"
	"repro/internal/ruleml"
	"repro/internal/services"
	"repro/internal/xmltree"
)

// BenchmarkAblationProjection: dispatching a query whose expression uses
// one variable, with the instance relation carrying 8 variables. Projection
// sends 1 column; without it the whole relation is marshalled.
func BenchmarkAblationProjection(b *testing.B) {
	store := services.NewDocStore()
	travel.LoadStore(store)
	svc := services.NewXQueryService(store, nil)
	g := grh.New()
	g.Register(grh.Descriptor{Language: services.XQueryNS, FrameworkAware: true, Local: svc})
	srv := httptest.NewServer(services.Handler(svc))
	defer srv.Close()
	gRemote := grh.New()
	gRemote.Register(grh.Descriptor{Language: services.XQueryNS, FrameworkAware: true, Endpoint: srv.URL})

	wide := bindings.NewRelation()
	for i := 0; i < 16; i++ {
		tup := bindings.MustTuple("Person", bindings.Str("John Doe"))
		for v := 0; v < 7; v++ {
			tup[fmt.Sprintf("Pad%d", v)] = bindings.Str(fmt.Sprintf("%d-%d", i, v))
		}
		wide.Add(tup)
	}
	narrow := wide.Project("Person") // what the engine actually sends

	expr := xmltree.NewElement(services.XQueryNS, "query")
	expr.AppendText(`for $c in doc('` + travel.CarsDoc + `')//owner[@name=$Person]/car return $c/model/text()`)
	comp := func(rel *bindings.Relation) grh.Component {
		return grh.Component{
			Rule:     "r",
			Comp:     ruleml.Component{Kind: ruleml.QueryComponent, ID: "q", Language: services.XQueryNS, Expression: expr},
			Bindings: rel,
		}
	}
	for _, c := range []struct {
		name string
		g    *grh.GRH
		rel  *bindings.Relation
	}{
		{"projected/local", g, narrow},
		{"full/local", g, wide},
		{"projected/http", gRemote, narrow},
		{"full/http", gRemote, wide},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := c.g.Dispatch(protocol.Query, comp(c.rel)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationOpaqueCrossover: framework-aware batch dispatch (one
// POST regardless of tuples) vs. opaque mediation (one GET per tuple).
func BenchmarkAblationOpaqueCrossover(b *testing.B) {
	store := services.NewDocStore()
	travel.LoadStore(store)
	aware := httptest.NewServer(services.Handler(services.NewXQueryService(store, nil)))
	defer aware.Close()
	opaque := httptest.NewServer(services.NewOpaqueXMLStore(xmltree.MustParse(travel.ClassesXML), nil))
	defer opaque.Close()
	g := grh.New()
	g.Register(grh.Descriptor{Language: services.XQueryNS, FrameworkAware: true, Endpoint: aware.URL})

	expr := xmltree.NewElement(services.XQueryNS, "query")
	expr.AppendText(`for $e in doc('` + travel.CarsDoc + `')//owner[@name=$OwnCar] return $e/@name`)
	for _, n := range []int{1, 2, 4, 8} {
		rel := bindings.NewRelation()
		for i := 0; i < n; i++ {
			rel.Add(bindings.MustTuple("OwnCar", bindings.Str(fmt.Sprintf("Car%d", i))))
		}
		b.Run(fmt.Sprintf("aware/tuples=%d", n), func(b *testing.B) {
			c := grh.Component{
				Rule:     "r",
				Comp:     ruleml.Component{Kind: ruleml.QueryComponent, ID: "q", Language: services.XQueryNS, Expression: expr},
				Bindings: rel,
			}
			for i := 0; i < b.N; i++ {
				if _, err := g.Dispatch(protocol.Query, c); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("opaque/tuples=%d", n), func(b *testing.B) {
			c := grh.Component{
				Rule: "r",
				Comp: ruleml.Component{
					Kind: ruleml.QueryComponent, ID: "q", Opaque: true,
					Language: "raw", Service: opaque.URL,
					Text: `//entry[@model='$OwnCar']/@class`,
				},
				Bindings: rel,
			}
			for i := 0; i < b.N; i++ {
				if _, err := g.Dispatch(protocol.Query, c); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// naiveJoin is the O(|R|·|S|) nested-loop join the hash join replaces.
func naiveJoin(r, s *bindings.Relation) *bindings.Relation {
	out := bindings.NewRelation()
	for _, t := range r.Tuples() {
		for _, u := range s.Tuples() {
			if t.Compatible(u) {
				out.Add(t.Merge(u))
			}
		}
	}
	return out
}

// BenchmarkAblationJoinAlgorithm: hash join vs. nested loop.
func BenchmarkAblationJoinAlgorithm(b *testing.B) {
	mk := func(n int, payload string) *bindings.Relation {
		r := bindings.NewRelation()
		for i := 0; i < n; i++ {
			r.Add(bindings.MustTuple(
				"K", bindings.Str(fmt.Sprintf("k%d", i%(n/2+1))),
				payload, bindings.Str(fmt.Sprintf("v%d", i)),
			))
		}
		return r
	}
	for _, n := range []int{100, 1000} {
		r, s := mk(n, "A"), mk(n, "B")
		b.Run(fmt.Sprintf("hash/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r.Join(s)
			}
		})
		b.Run(fmt.Sprintf("nested/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				naiveJoin(r, s)
			}
		})
	}
}
