// Package datalog implements a Datalog engine: parser, safety and
// stratification checks, and semi-naive bottom-up evaluation with stratified
// negation and comparison built-ins.
//
// In the ECA framework it is the archetype of the Logic-Programming-style
// component languages of Section 3 ("languages match free variables", like
// Datalog, F-Logic, XPathLog, Xcerpt): a query extends the incoming tuples
// of variable bindings by matching. The service wrapper in
// internal/services exposes it through the Generic Request Handler.
package datalog

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/bindings"
)

// Term is a constant or variable. Variables start with an upper-case letter
// or underscore, per Prolog convention.
type Term struct {
	// Var is the variable name, or "" for constants.
	Var string
	// Const is the constant value (meaningful when Var is "").
	Const bindings.Value
}

// V returns a variable term.
func V(name string) Term { return Term{Var: name} }

// C returns a constant term from a binding value.
func C(v bindings.Value) Term { return Term{Const: v} }

// S returns a string-constant term.
func S(s string) Term { return C(bindings.Str(s)) }

// N returns a numeric-constant term.
func N(f float64) Term { return C(bindings.Num(f)) }

// IsVar reports whether the term is a variable.
func (t Term) IsVar() bool { return t.Var != "" }

// String renders the term in Datalog syntax.
func (t Term) String() string {
	if t.IsVar() {
		return t.Var
	}
	if t.Const.Kind() == bindings.Number || t.Const.Kind() == bindings.Bool {
		return t.Const.AsString()
	}
	s := t.Const.AsString()
	if isPlainName(s) {
		return s
	}
	return `"` + strings.ReplaceAll(s, `"`, `\"`) + `"`
}

func isPlainName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z':
		case r >= 'A' && r <= 'Z', r == '_':
			if i == 0 {
				return false // would parse back as a variable
			}
		case r >= '0' && r <= '9', r == '-':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// Atom is a predicate applied to terms.
type Atom struct {
	Pred string
	Args []Term
}

// String renders the atom in Datalog syntax.
func (a Atom) String() string {
	parts := make([]string, len(a.Args))
	for i, t := range a.Args {
		parts[i] = t.String()
	}
	return a.Pred + "(" + strings.Join(parts, ", ") + ")"
}

// Binds returns the atom's variables, each once, in argument order: as a
// query goal, every answer binds each of them.
func (a Atom) Binds() []string {
	var vars []string
	for _, t := range a.Args {
		if t.IsVar() && !slices.Contains(vars, t.Var) {
			vars = append(vars, t.Var)
		}
	}
	return vars
}

// Uses returns the atom's variables too: as a query goal, an input binding
// of one is substituted into the goal before matching.
func (a Atom) Uses() []string { return a.Binds() }

// key identifies a predicate by name and arity.
func (a Atom) key() predKey { return predKey{a.Pred, len(a.Args)} }

type predKey struct {
	name  string
	arity int
}

func (k predKey) String() string { return fmt.Sprintf("%s/%d", k.name, k.arity) }

// Literal is a body literal: an atom, a negated atom, or a comparison
// built-in (Cmp is one of = != < <= > >=).
type Literal struct {
	Atom    Atom
	Negated bool
	// Cmp marks comparison built-ins; Atom.Args then holds the two
	// operands and Atom.Pred is unused.
	Cmp string
}

// String renders the literal in Datalog syntax.
func (l Literal) String() string {
	if l.Cmp != "" {
		return l.Atom.Args[0].String() + " " + l.Cmp + " " + l.Atom.Args[1].String()
	}
	if l.Negated {
		return "not " + l.Atom.String()
	}
	return l.Atom.String()
}

// Rule is head :- body. A rule with an empty body is a fact (the head must
// then be ground).
type Rule struct {
	Head Atom
	Body []Literal
}

// String renders the rule in Datalog syntax.
func (r Rule) String() string {
	if len(r.Body) == 0 {
		return r.Head.String() + "."
	}
	parts := make([]string, len(r.Body))
	for i, l := range r.Body {
		parts[i] = l.String()
	}
	return r.Head.String() + " :- " + strings.Join(parts, ", ") + "."
}

// Program is a set of rules and facts.
type Program struct {
	Rules []Rule
}

// String renders the program, facts first.
func (p *Program) String() string {
	var b strings.Builder
	for _, r := range p.Rules {
		b.WriteString(r.String())
		b.WriteString("\n")
	}
	return b.String()
}

// Validate checks range restriction (safety) and stratifiability:
//   - every variable in a rule head, in a negated literal or in a comparison
//     must occur in a positive, non-built-in body literal;
//   - facts must be ground;
//   - negation must not occur in a recursive cycle.
func (p *Program) Validate() error {
	for _, r := range p.Rules {
		if err := checkSafety(r); err != nil {
			return err
		}
	}
	if _, err := p.stratify(); err != nil {
		return err
	}
	return nil
}

func checkSafety(r Rule) error {
	positive := map[string]bool{}
	for _, l := range r.Body {
		if l.Negated || l.Cmp != "" {
			continue
		}
		for _, t := range l.Atom.Args {
			if t.IsVar() {
				positive[t.Var] = true
			}
		}
	}
	need := func(t Term, where string) error {
		if t.IsVar() && !positive[t.Var] {
			return fmt.Errorf("datalog: unsafe rule %s: variable %s in %s is not bound by a positive body literal", r, t.Var, where)
		}
		return nil
	}
	for _, t := range r.Head.Args {
		if err := need(t, "the head"); err != nil {
			return err
		}
	}
	for _, l := range r.Body {
		if l.Negated || l.Cmp != "" {
			for _, t := range l.Atom.Args {
				if err := need(t, l.String()); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// stratify computes a stratification: a map from predicate key to stratum
// such that positive dependencies stay within ≤ and negative dependencies
// strictly increase. An error is returned when negation is involved in a
// cycle.
func (p *Program) stratify() (map[predKey]int, error) {
	strata := map[predKey]int{}
	keys := map[predKey]bool{}
	for _, r := range p.Rules {
		keys[r.Head.key()] = true
		for _, l := range r.Body {
			if l.Cmp == "" {
				keys[l.Atom.key()] = true
			}
		}
	}
	n := len(keys)
	// Iterative relaxation; more than n·n updates implies a negative cycle.
	for iter := 0; ; iter++ {
		changed := false
		for _, r := range p.Rules {
			h := r.Head.key()
			for _, l := range r.Body {
				if l.Cmp != "" {
					continue
				}
				b := l.Atom.key()
				min := strata[b]
				if l.Negated {
					min++
				}
				if strata[h] < min {
					strata[h] = min
					changed = true
				}
			}
		}
		if !changed {
			return strata, nil
		}
		if iter > n+1 {
			return nil, fmt.Errorf("datalog: program is not stratifiable (negation through recursion)")
		}
	}
}

// --- evaluation ----------------------------------------------------------------

// factKey canonicalizes a ground atom for set membership.
func factKey(a Atom) string {
	parts := make([]string, len(a.Args)+1)
	parts[0] = a.Pred
	for i, t := range a.Args {
		parts[i+1] = t.Const.Key()
	}
	return strings.Join(parts, "\x00")
}

// database is a set of ground atoms grouped by predicate, with per-argument
// value indexes so body literals with a bound argument join in expected
// constant time per matching fact.
type database struct {
	facts map[predKey][]Atom
	seen  map[string]bool
	byArg map[argKey][]Atom
}

type argKey struct {
	pred predKey
	pos  int
	val  string // bindings.Value.Key()
}

func newDatabase() *database {
	return &database{facts: map[predKey][]Atom{}, seen: map[string]bool{}, byArg: map[argKey][]Atom{}}
}

func (db *database) add(a Atom) bool {
	k := factKey(a)
	if db.seen[k] {
		return false
	}
	db.seen[k] = true
	db.facts[a.key()] = append(db.facts[a.key()], a)
	for i, t := range a.Args {
		ak := argKey{a.key(), i, t.Const.Key()}
		db.byArg[ak] = append(db.byArg[ak], a)
	}
	return true
}

func (db *database) contains(a Atom) bool { return db.seen[factKey(a)] }

// candidates returns the facts possibly unifying with the literal pattern
// under env, using the most selective available argument index.
func (db *database) candidates(pat Atom, env map[string]bindings.Value) []Atom {
	best := db.facts[pat.key()]
	indexed := false
	for i, t := range pat.Args {
		var v bindings.Value
		if t.IsVar() {
			bound, ok := env[t.Var]
			if !ok {
				continue
			}
			v = bound
		} else {
			v = t.Const
		}
		bucket := db.byArg[argKey{pat.key(), i, v.Key()}]
		if !indexed || len(bucket) < len(best) {
			best = bucket
			indexed = true
		}
	}
	return best
}

// Eval computes the minimal model of the program (with stratified negation)
// and returns the resulting fact database for querying. Evaluation is
// semi-naive within each stratum: rule bodies are re-joined only against
// facts newly derived in the previous iteration.
func (p *Program) Eval() (*Database, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	strata, _ := p.stratify()
	maxStratum := 0
	for _, s := range strata {
		if s > maxStratum {
			maxStratum = s
		}
	}
	db := newDatabase()
	for s := 0; s <= maxStratum; s++ {
		var layer []Rule
		for _, r := range p.Rules {
			if strata[r.Head.key()] == s {
				layer = append(layer, r)
			}
		}
		evalStratum(db, layer)
	}
	return &Database{db: db}, nil
}

func evalStratum(db *database, rules []Rule) {
	// Facts first.
	var delta []Atom
	for _, r := range rules {
		if len(r.Body) == 0 {
			if db.add(r.Head) {
				delta = append(delta, r.Head)
			}
		}
	}
	// Initial round: evaluate every rule against the full database (facts
	// from lower strata are already present).
	for _, r := range rules {
		if len(r.Body) == 0 {
			continue
		}
		for _, a := range deriveAll(db, r, nil) {
			if db.add(a) {
				delta = append(delta, a)
			}
		}
	}
	// Semi-naive iteration.
	for len(delta) > 0 {
		var next []Atom
		for _, r := range rules {
			if len(r.Body) == 0 {
				continue
			}
			for _, a := range deriveAll(db, r, delta) {
				if db.add(a) {
					next = append(next, a)
				}
			}
		}
		delta = next
	}
}

// deriveAll computes the heads derivable from rule r. When delta is
// non-nil the evaluation is semi-naive: each positive body literal in turn
// is seeded from the delta facts, and the remaining literals join against
// the full database through the argument indexes.
//
// Body literals are evaluated positives-first so that negations and
// comparisons — pure filters — see all their variables bound, regardless of
// how the rule author ordered the body.
func deriveAll(db *database, r Rule, delta []Atom) []Atom {
	var positives []Literal
	var filters []Literal
	for _, l := range r.Body {
		if !l.Negated && l.Cmp == "" {
			positives = append(positives, l)
		} else {
			filters = append(filters, l)
		}
	}
	var out []Atom
	// walk joins the positive literals from index i (skipping the seeded
	// one), then applies the filters, then emits the head.
	var walk func(i, seeded int, env map[string]bindings.Value)
	walk = func(i, seeded int, env map[string]bindings.Value) {
		if i == len(positives) {
			for _, l := range filters {
				if l.Cmp != "" {
					if !evalCmp(l, env) {
						return
					}
					continue
				}
				if db.contains(substAtom(l.Atom, env)) {
					return
				}
			}
			out = append(out, substAtom(r.Head, env))
			return
		}
		if i == seeded {
			walk(i+1, seeded, env)
			return
		}
		for _, f := range db.candidates(positives[i].Atom, env) {
			if env2, ok := unify(positives[i].Atom, f, env); ok {
				walk(i+1, seeded, env2)
			}
		}
	}
	if delta == nil {
		walk(0, -1, map[string]bindings.Value{})
		return out
	}
	for seeded, l := range positives {
		key := l.Atom.key()
		for _, f := range delta {
			if f.key() != key {
				continue
			}
			if env, ok := unify(l.Atom, f, map[string]bindings.Value{}); ok {
				walk(0, seeded, env)
			}
		}
	}
	return out
}

func substAtom(a Atom, env map[string]bindings.Value) Atom {
	args := make([]Term, len(a.Args))
	for i, t := range a.Args {
		if t.IsVar() {
			if v, ok := env[t.Var]; ok {
				args[i] = C(v)
				continue
			}
		}
		args[i] = t
	}
	return Atom{a.Pred, args}
}

// unify matches a (possibly non-ground) atom against a ground fact,
// extending env; it returns a fresh env on success.
func unify(pat, fact Atom, env map[string]bindings.Value) (map[string]bindings.Value, bool) {
	out := env
	copied := false
	for i, t := range pat.Args {
		fv := fact.Args[i].Const
		if t.IsVar() {
			if old, ok := out[t.Var]; ok {
				if !old.Equal(fv) {
					return nil, false
				}
				continue
			}
			if !copied {
				n := make(map[string]bindings.Value, len(out)+1)
				for k, v := range out {
					n[k] = v
				}
				out = n
				copied = true
			}
			out[t.Var] = fv
			continue
		}
		if !t.Const.Equal(fv) {
			return nil, false
		}
	}
	return out, true
}

func evalCmp(l Literal, env map[string]bindings.Value) bool {
	get := func(t Term) (bindings.Value, bool) {
		if t.IsVar() {
			v, ok := env[t.Var]
			return v, ok
		}
		return t.Const, true
	}
	a, ok1 := get(l.Atom.Args[0])
	b, ok2 := get(l.Atom.Args[1])
	if !ok1 || !ok2 {
		return false
	}
	switch l.Cmp {
	case "=":
		return a.Equal(b)
	case "!=":
		return !a.Equal(b)
	}
	x, okA := a.AsNumber()
	y, okB := b.AsNumber()
	if okA && okB {
		switch l.Cmp {
		case "<":
			return x < y
		case "<=":
			return x <= y
		case ">":
			return x > y
		case ">=":
			return x >= y
		}
		return false
	}
	// Fall back to lexicographic comparison for non-numeric operands.
	switch l.Cmp {
	case "<":
		return a.AsString() < b.AsString()
	case "<=":
		return a.AsString() <= b.AsString()
	case ">":
		return a.AsString() > b.AsString()
	case ">=":
		return a.AsString() >= b.AsString()
	}
	return false
}

// Database is the materialized model of an evaluated program.
type Database struct {
	db *database
}

// Query matches a single goal atom against the database and returns the
// tuples of variable bindings for the atom's variables. Repeated variables
// in the goal act as join (equality) constraints.
func (d *Database) Query(goal Atom) *bindings.Relation {
	rel := bindings.NewRelation()
	for _, f := range d.db.candidates(goal, nil) {
		if env, ok := unify(goal, f, map[string]bindings.Value{}); ok {
			t := bindings.Tuple{}
			for k, v := range env {
				t[k] = v
			}
			rel.Add(t)
		}
	}
	return rel
}

// QueryAll conjunctively matches several goal atoms (a read-only BGP over
// the materialized model) and returns the joined bindings.
func (d *Database) QueryAll(goals []Atom) *bindings.Relation {
	rel := bindings.Unit()
	for _, g := range goals {
		rel = rel.Join(d.Query(g))
		if rel.Empty() {
			break
		}
	}
	return rel
}

// Facts returns all derived facts for a predicate, sorted, mainly for tests
// and debugging.
func (d *Database) Facts(pred string, arity int) []Atom {
	fs := append([]Atom(nil), d.db.facts[predKey{pred, arity}]...)
	sort.Slice(fs, func(i, j int) bool { return fs[i].String() < fs[j].String() })
	return fs
}

// Size returns the total number of derived facts.
func (d *Database) Size() int { return len(d.db.seen) }
