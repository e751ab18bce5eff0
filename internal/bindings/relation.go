package bindings

import (
	"fmt"
	"sort"
	"strings"
)

// Tuple is one tuple of variable bindings: a finite map from variable names
// to values. Tuples are treated as immutable once placed in a Relation;
// operations that extend a tuple copy it first.
type Tuple map[string]Value

// NewTuple returns a tuple binding the given alternating name/value pairs.
func NewTuple(pairs ...any) (Tuple, error) {
	if len(pairs)%2 != 0 {
		return nil, fmt.Errorf("bindings: NewTuple: odd number of arguments")
	}
	t := make(Tuple, len(pairs)/2)
	for i := 0; i < len(pairs); i += 2 {
		name, ok := pairs[i].(string)
		if !ok {
			return nil, fmt.Errorf("bindings: NewTuple: argument %d is not a variable name", i)
		}
		v, ok := pairs[i+1].(Value)
		if !ok {
			return nil, fmt.Errorf("bindings: NewTuple: argument %d is not a Value", i+1)
		}
		t[Intern(name)] = v
	}
	return t, nil
}

// MustTuple is NewTuple panicking on error, for tests and static data.
func MustTuple(pairs ...any) Tuple {
	t, err := NewTuple(pairs...)
	if err != nil {
		panic(err)
	}
	return t
}

// Clone returns a copy of the tuple.
func (t Tuple) Clone() Tuple {
	c := make(Tuple, len(t))
	for k, v := range t {
		c[k] = v
	}
	return c
}

// Vars returns the sorted variable names bound in the tuple.
func (t Tuple) Vars() []string {
	out := make([]string, 0, len(t))
	for k := range t {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Compatible reports whether two tuples agree (via Value.Equal) on every
// variable they share, the precondition for merging them in a natural join.
func (t Tuple) Compatible(u Tuple) bool {
	small, large := t, u
	if len(u) < len(t) {
		small, large = u, t
	}
	for k, v := range small {
		if w, ok := large[k]; ok && !v.Equal(w) {
			return false
		}
	}
	return true
}

// Merge returns a new tuple combining the bindings of both tuples. For
// shared variables the value from t wins; callers should check Compatible
// first if exact agreement matters.
func (t Tuple) Merge(u Tuple) Tuple {
	m := make(Tuple, len(t)+len(u))
	for k, v := range u {
		m[k] = v
	}
	for k, v := range t {
		m[k] = v
	}
	return m
}

// Equal reports whether two tuples bind the same variables to Equal values.
func (t Tuple) Equal(u Tuple) bool {
	if len(t) != len(u) {
		return false
	}
	for k, v := range t {
		w, ok := u[k]
		if !ok || !v.Equal(w) {
			return false
		}
	}
	return true
}

// key returns a canonical string for duplicate elimination.
func (t Tuple) key() string {
	buf, _ := t.appendKey(nil, nil)
	return string(buf)
}

// appendKey appends the canonical dedup key of t to buf, reusing names as
// sorting scratch, and returns both grown slices. Tuples that are Equal
// produce identical keys (variables sorted, values via Value.AppendKey).
func (t Tuple) appendKey(buf []byte, names []string) ([]byte, []string) {
	names = names[:0]
	for k := range t {
		names = append(names, k)
	}
	sort.Strings(names)
	for i, k := range names {
		if i > 0 {
			buf = append(buf, '\x01')
		}
		buf = append(buf, k...)
		buf = append(buf, '\x00')
		buf = t[k].AppendKey(buf)
	}
	return buf, names
}

// String renders the tuple as {X=v, Y=w} with variables sorted.
func (t Tuple) String() string {
	var b strings.Builder
	b.WriteString("{")
	for i, k := range t.Vars() {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(k)
		b.WriteString("=")
		b.WriteString(t[k].String())
	}
	b.WriteString("}")
	return b.String()
}

// smallRelation is the most tuples a relation holds before it indexes
// them. Most relations of a rule instance hold one tuple; up to this size a
// linear Tuple.Equal scan finds duplicates and the tuples themselves give
// the variable set, so such a relation allocates no map.
const smallRelation = 8

// Relation is a set of tuples of variable bindings — the evaluation state of
// an ECA rule instance as it flows through the Event, Query, Test and Action
// components. The zero Relation is empty. Relations are not safe for
// concurrent mutation.
type Relation struct {
	tuples []Tuple
	// index and varset are built when the relation grows past
	// smallRelation tuples, and kept by add from then on.
	index  map[string][]int // tuple.key() → indices, for duplicate elimination
	varset map[string]bool  // union of variables bound in any tuple
}

// NewRelation returns a relation containing the given tuples (duplicates,
// per Tuple.Equal, are removed).
func NewRelation(tuples ...Tuple) *Relation {
	r := &Relation{}
	for _, t := range tuples {
		r.Add(t)
	}
	return r
}

// Unit returns the relation containing exactly the empty tuple — the
// identity of the natural join, used as the initial state before the event
// component binds anything.
func Unit() *Relation { return NewRelation(Tuple{}) }

// Add inserts a tuple unless an Equal tuple is already present.
// It reports whether the tuple was inserted.
func (r *Relation) Add(t Tuple) bool { return r.add(t, false) }

// add is Add with the pooling contract: when pooled is set, a rejected
// duplicate is returned to the tuple pool (it was never stored, so no one
// else can hold a reference). A small relation scans its tuples; a larger
// one looks the tuple's key up in its index, building the key in pooled
// scratch and converting it to a string only when the tuple is inserted,
// so neither lookup allocates. Tuples that are Equal have the same key, so
// both find the same duplicates.
func (r *Relation) add(t Tuple, pooled bool) bool {
	if r.index == nil {
		for _, u := range r.tuples {
			if u.Equal(t) {
				if pooled {
					releaseTuple(t)
				}
				return false
			}
		}
		r.tuples = append(r.tuples, t)
		if len(r.tuples) > smallRelation {
			r.buildIndex()
		}
		return true
	}
	sc := getScratch()
	sc.buf, sc.names = t.appendKey(sc.buf[:0], sc.names)
	for _, i := range r.index[string(sc.buf)] {
		if r.tuples[i].Equal(t) {
			putScratch(sc)
			if pooled {
				releaseTuple(t)
			}
			return false
		}
	}
	k := string(sc.buf)
	putScratch(sc)
	r.index[k] = append(r.index[k], len(r.tuples))
	r.tuples = append(r.tuples, t)
	for name := range t {
		r.varset[name] = true
	}
	return true
}

// buildIndex builds the key index and variable set of a relation that has
// outgrown smallRelation, sized for the tuples newSized made room for.
func (r *Relation) buildIndex() {
	r.index = make(map[string][]int, max(2*len(r.tuples), cap(r.tuples)))
	r.varset = map[string]bool{}
	sc := getScratch()
	for i, t := range r.tuples {
		sc.buf, sc.names = t.appendKey(sc.buf[:0], sc.names)
		k := string(sc.buf)
		r.index[k] = append(r.index[k], i)
		for name := range t {
			r.varset[name] = true
		}
	}
	putScratch(sc)
}

// newSized returns an empty relation with room for about n tuples, so bulk
// producers (Join, Select, Project) do not regrow its slice.
func newSized(n int) *Relation {
	return &Relation{tuples: make([]Tuple, 0, n)}
}

// mergeTuples merges two tuples into a pool-obtained map (t wins on shared
// variables, like Tuple.Merge). The result must go through add(…, true).
func mergeTuples(t, u Tuple) Tuple {
	m := getTuple()
	for k, v := range u {
		m[k] = v
	}
	for k, v := range t {
		m[k] = v
	}
	return m
}

// Size returns the number of tuples.
func (r *Relation) Size() int { return len(r.tuples) }

// Empty reports whether the relation has no tuples. Note that Unit() is not
// empty: it holds one (empty) tuple.
func (r *Relation) Empty() bool { return len(r.tuples) == 0 }

// Tuples returns the underlying tuples in insertion order. The slice is
// shared; callers must not mutate it.
func (r *Relation) Tuples() []Tuple { return r.tuples }

// Vars returns the sorted union of variables bound in any tuple. A large
// relation keeps the set as it adds tuples, so this costs O(vars), not
// O(tuples×vars) — Join consults it on every call.
func (r *Relation) Vars() []string {
	out := []string{}
	r.eachVar(func(v string) { out = append(out, v) })
	sort.Strings(out)
	return out
}

// eachVar calls f once for every variable bound in some tuple, in no
// particular order.
func (r *Relation) eachVar(f func(string)) {
	if r.varset != nil {
		for v := range r.varset {
			f(v)
		}
		return
	}
	for i, t := range r.tuples {
	names:
		for v := range t {
			for _, u := range r.tuples[:i] {
				if _, seen := u[v]; seen {
					continue names
				}
			}
			f(v)
		}
	}
}

// hasVar reports whether some tuple binds v.
func (r *Relation) hasVar(v string) bool {
	if r.varset != nil {
		return r.varset[v]
	}
	for _, t := range r.tuples {
		if _, ok := t[v]; ok {
			return true
		}
	}
	return false
}

// Clone returns a relation with copies of all tuples.
func (r *Relation) Clone() *Relation {
	c := &Relation{}
	for _, t := range r.tuples {
		c.Add(t.Clone())
	}
	return c
}

// Join computes the natural join r ⋈ s: for every pair of compatible tuples
// the merged tuple is emitted. Variables occurring on both sides act as join
// variables; tuples disagreeing on any shared variable are eliminated —
// this is the paper's mechanism for discarding, e.g., cars whose class is
// not available at the destination (Fig. 11).
func (r *Relation) Join(s *Relation) *Relation {
	if r.Empty() || s.Empty() {
		return &Relation{}
	}
	shared := sharedVars(r, s)
	if len(shared) == 0 {
		// Cartesian product.
		out := newSized(len(r.tuples) * len(s.tuples))
		for _, t := range r.tuples {
			for _, u := range s.tuples {
				out.add(mergeTuples(t, u), true)
			}
		}
		return out
	}
	// Hash join on the shared variables. Tuples missing one of the shared
	// variables (heterogeneous relations) fall back to pairwise checks.
	out := newSized(max(len(r.tuples), len(s.tuples)))
	idx := make(map[string][]Tuple, len(s.tuples))
	var partialS []Tuple
	sc := getScratch()
	for _, u := range s.tuples {
		var ok bool
		sc.buf, ok = appendJoinKey(sc.buf[:0], u, shared)
		if !ok {
			partialS = append(partialS, u)
			continue
		}
		idx[string(sc.buf)] = append(idx[string(sc.buf)], u)
	}
	for _, t := range r.tuples {
		var ok bool
		sc.buf, ok = appendJoinKey(sc.buf[:0], t, shared)
		if !ok {
			// t lacks a shared var: compatible with anything agreeing on
			// the vars it does have.
			for _, u := range s.tuples {
				if t.Compatible(u) {
					out.add(mergeTuples(t, u), true)
				}
			}
			continue
		}
		for _, u := range idx[string(sc.buf)] { // no-alloc probe
			if t.Compatible(u) { // exact check (keys can collide for XML)
				out.add(mergeTuples(t, u), true)
			}
		}
		for _, u := range partialS {
			if t.Compatible(u) {
				out.add(mergeTuples(t, u), true)
			}
		}
	}
	putScratch(sc)
	return out
}

func sharedVars(r, s *Relation) []string {
	if len(s.tuples) < len(r.tuples) {
		r, s = s, r
	}
	var shared []string
	r.eachVar(func(v string) {
		if s.hasVar(v) {
			shared = append(shared, v)
		}
	})
	sort.Strings(shared)
	return shared
}

// appendJoinKey appends the hash-join key of t over vars to buf, reporting
// whether every var is bound in t.
func appendJoinKey(buf []byte, t Tuple, vars []string) ([]byte, bool) {
	for i, v := range vars {
		val, ok := t[v]
		if !ok {
			return buf, false
		}
		if i > 0 {
			buf = append(buf, '\x01')
		}
		buf = val.AppendKey(buf)
	}
	return buf, true
}

// Select returns the tuples satisfying pred — the test component's
// semantics (σ): tuples failing the condition are discarded.
func (r *Relation) Select(pred func(Tuple) bool) *Relation {
	out := newSized(len(r.tuples))
	for _, t := range r.tuples {
		if pred(t) {
			out.add(t, false)
		}
	}
	return out
}

// Project returns the relation restricted to the given variables; tuples
// that become Equal after projection are merged.
func (r *Relation) Project(vars ...string) *Relation {
	keep := map[string]bool{}
	for _, v := range vars {
		keep[v] = true
	}
	out := newSized(len(r.tuples))
	for _, t := range r.tuples {
		p := getTuple()
		for k, v := range t {
			if keep[k] {
				p[k] = v
			}
		}
		out.add(p, true)
	}
	return out
}

// Union returns the set union of two relations.
func (r *Relation) Union(s *Relation) *Relation {
	out := newSized(len(r.tuples) + len(s.tuples))
	for _, t := range r.tuples {
		out.add(t, false)
	}
	for _, t := range s.tuples {
		out.add(t, false)
	}
	return out
}

// Extend binds, in every tuple, the variable name to each of the values
// produced by f for that tuple; a tuple for which f yields n values becomes
// n tuples (and disappears when n is 0). This implements the paper's
// <eca:variable name="N"> construct: each answer of a functional expression
// yields a separate variable binding.
func (r *Relation) Extend(name string, f func(Tuple) []Value) *Relation {
	out := newSized(len(r.tuples))
	for _, t := range r.tuples {
		for _, v := range f(t) {
			n := getTuple()
			for k, w := range t {
				n[k] = w
			}
			n[name] = v
			out.add(n, true)
		}
	}
	return out
}

// Equal reports set equality of two relations (order-insensitive).
func (r *Relation) Equal(s *Relation) bool {
	if r.Size() != s.Size() {
		return false
	}
	used := make([]bool, s.Size())
outer:
	for _, t := range r.tuples {
		for i, u := range s.tuples {
			if !used[i] && t.Equal(u) {
				used[i] = true
				continue outer
			}
		}
		return false
	}
	return true
}

// String renders the relation, one tuple per line, in a canonical order.
func (r *Relation) String() string {
	lines := make([]string, len(r.tuples))
	for i, t := range r.tuples {
		lines[i] = t.String()
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}
