package bindings

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/xmltree"
)

// The relation algebra against a nested-loop reference. Relations of 0–20
// tuples cross smallRelation, so both the linear dedup scan and the key
// index are checked. The value pool has duplicates under Equal (1 and "1",
// two copies of one fragment), heterogeneous tuples (each binds a random
// subset of the variables) and XML fragments whose Keys collide without
// being Equal (<x>q</x> and <y>q</y>). No scalar in the pool is Equal to a
// fragment, so Equal is transitive on it and a set does not depend on the
// order its duplicates arrive in.

var refVars = []string{"A", "B", "C", "D"}

func refPool() []Value {
	frag := func(src string) Value { return Fragment(xmltree.MustParse(src).Root()) }
	return []Value{
		Str("a"), Str("b"), Str("1"), Num(1), Num(2), Str(" 2"),
		Boolean(true), Ref("http://example.org/a"),
		frag(`<x>q</x>`), frag(`<x>q</x>`), frag(`<y>q</y>`), frag(`<x k="1">q</x>`),
	}
}

// refTuples draws n tuples, each binding a random subset of vars.
func refTuples(rng *rand.Rand, pool []Value, vars []string, n int) []Tuple {
	out := make([]Tuple, n)
	for i := range out {
		t := Tuple{}
		for _, v := range vars {
			if rng.Intn(3) > 0 {
				t[v] = pool[rng.Intn(len(pool))]
			}
		}
		out[i] = t
	}
	return out
}

// refDedup keeps the first of every run of Equal tuples, in order.
func refDedup(ts []Tuple) []Tuple {
	var out []Tuple
next:
	for _, t := range ts {
		for _, u := range out {
			if u.Equal(t) {
				continue next
			}
		}
		out = append(out, t)
	}
	return out
}

// sameSet reports whether a and b hold the same tuples, up to Equal and
// order.
func sameSet(a, b []Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	used := make([]bool, len(b))
next:
	for _, t := range a {
		for i, u := range b {
			if !used[i] && t.Equal(u) {
				used[i] = true
				continue next
			}
		}
		return false
	}
	return true
}

// sameSeq reports whether a and b hold Equal tuples in the same order.
func sameSeq(a, b []Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

func TestRelationAlgebraReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pool := refPool()
	for i := 0; i < 400; i++ {
		rt := refTuples(rng, pool, refVars[:1+rng.Intn(4)], rng.Intn(21))
		st := refTuples(rng, pool, refVars[rng.Intn(3):], rng.Intn(21))
		r, s := NewRelation(rt...), NewRelation(st...)
		where := fmt.Sprintf("case %d:\nr = %v\ns = %v", i, r.Tuples(), s.Tuples())

		rd := refDedup(rt)
		if !sameSeq(r.Tuples(), rd) {
			t.Fatalf("%s\nAdd kept %v, reference %v", where, r.Tuples(), rd)
		}

		var joined []Tuple
		for _, x := range rd {
			for _, y := range refDedup(st) {
				if x.Compatible(y) {
					joined = append(joined, x.Merge(y))
				}
			}
		}
		if got, want := r.Join(s).Tuples(), refDedup(joined); !sameSet(got, want) {
			t.Fatalf("%s\nJoin = %v\nreference %v", where, got, want)
		}

		pred := func(x Tuple) bool { v, ok := x["A"]; return ok && v.AsString() != "a" }
		var kept []Tuple
		for _, x := range rd {
			if pred(x) {
				kept = append(kept, x)
			}
		}
		if got := r.Select(pred).Tuples(); !sameSeq(got, kept) {
			t.Fatalf("%s\nSelect = %v\nreference %v", where, got, kept)
		}

		var keep []string
		for _, v := range refVars {
			if rng.Intn(2) == 0 {
				keep = append(keep, v)
			}
		}
		var projected []Tuple
		for _, x := range rd {
			p := Tuple{}
			for _, v := range keep {
				if val, ok := x[v]; ok {
					p[v] = val
				}
			}
			projected = append(projected, p)
		}
		if got, want := r.Project(keep...).Tuples(), refDedup(projected); !sameSeq(got, want) {
			t.Fatalf("%s\nProject(%v) = %v\nreference %v", where, keep, got, want)
		}

		f := func(x Tuple) []Value { return pool[len(x) : 2*len(x)] }
		var extended []Tuple
		for _, x := range rd {
			for _, v := range f(x) {
				e := x.Clone()
				e["E"] = v
				extended = append(extended, e)
			}
		}
		if got, want := r.Extend("E", f).Tuples(), refDedup(extended); !sameSet(got, want) {
			t.Fatalf("%s\nExtend = %v\nreference %v", where, got, want)
		}

		if got, want := r.Union(s).Tuples(), refDedup(append(append([]Tuple(nil), rt...), st...)); !sameSet(got, want) {
			t.Fatalf("%s\nUnion = %v\nreference %v", where, got, want)
		}

		set := map[string]bool{}
		for _, x := range rt {
			for v := range x {
				set[v] = true
			}
		}
		vars := []string{}
		for v := range set {
			vars = append(vars, v)
		}
		sort.Strings(vars)
		if got := r.Vars(); !reflect.DeepEqual(got, vars) {
			t.Fatalf("%s\nVars = %v, reference %v", where, got, vars)
		}
	}
}
