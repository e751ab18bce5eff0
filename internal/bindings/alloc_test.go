package bindings

import (
	"fmt"
	"sync"
	"testing"
)

// The ReportAllocs benchmarks are the PR's allocation regression guard
// (BenchmarkJoin lives in vars_test.go):
// go test -bench 'Join|Select|Project' -benchmem ./internal/bindings

func BenchmarkJoinCartesian(b *testing.B) {
	r := benchRelation(50, 25, "K", "A")
	s := benchRelation(50, 25, "L", "B")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := r.Join(s); out.Size() == 0 {
			b.Fatal("empty join")
		}
	}
}

func BenchmarkSelect(b *testing.B) {
	r := benchRelation(1000, 500, "K", "A")
	pred := func(t Tuple) bool { return t["A"].AsString() != "v0" }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := r.Select(pred); out.Size() == 0 {
			b.Fatal("empty select")
		}
	}
}

func BenchmarkProject(b *testing.B) {
	r := benchRelation(1000, 500, "K", "A")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := r.Project("K"); out.Size() == 0 {
			b.Fatal("empty project")
		}
	}
}

func BenchmarkAdd(b *testing.B) {
	tuples := make([]Tuple, 512)
	for i := range tuples {
		tuples[i] = MustTuple("K", Str(fmt.Sprintf("k%d", i)), "V", Num(float64(i)))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := NewRelation()
		for _, t := range tuples {
			r.Add(t)
			r.Add(t) // duplicate: the dedup lookup must not allocate
		}
	}
}

// TestPoolReuseCanary is the mutate-after-return canary: tuples stored in a
// relation returned by Join/Project/Extend must never be recycled by later
// operations. It holds references into an early result, churns the pool
// hard, and asserts the held tuples are unchanged — for relations on both
// sides of smallRelation, since small ones dedup without their index.
func TestPoolReuseCanary(t *testing.T) {
	for _, c := range []struct{ n, keys, churnKeys int }{
		{smallRelation - 2, smallRelation - 2, smallRelation - 2}, // every relation small
		{64, 8, 4},
	} {
		n := c.n
		t.Run(fmt.Sprintf("tuples=%d", n), func(t *testing.T) {
			r := benchRelation(n, c.keys, "K", "A")
			s := benchRelation(n, c.keys, "K", "B")
			first := r.Join(s)
			if first.Empty() {
				t.Fatal("empty join")
			}
			// Snapshot the result by deep copy before churning.
			want := make([]Tuple, 0, first.Size())
			for _, tu := range first.Tuples() {
				want = append(want, tu.Clone())
			}
			// Churn: many joins/projections whose duplicate rejections and
			// pooled tuples would stomp first's tuples if any stored tuple
			// were released.
			for i := 0; i < 50; i++ {
				x := benchRelation(n, c.churnKeys, "K", "C")
				y := benchRelation(n, c.churnKeys, "K", "D")
				out := x.Join(y)
				out.Project("K")
				out.Project() // all but one projection is a rejected pooled duplicate
				out.Extend("E", func(Tuple) []Value { return []Value{Str("e")} })
				// Duplicate-heavy union exercises the release-on-reject path.
				x.Union(x)
			}
			got := first.Tuples()
			if len(got) != len(want) {
				t.Fatalf("result size changed under pool churn: %d → %d", len(want), len(got))
			}
			for i := range got {
				if !got[i].Equal(want[i]) {
					t.Fatalf("tuple %d mutated by pool reuse:\n  was %v\n  now %v", i, want[i], got[i])
				}
			}
		})
	}
}

// TestConcurrentRelationOps runs the relation algebra from many goroutines
// (distinct relations, shared pools) under -race.
func TestConcurrentRelationOps(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				r := benchRelation(40, 5, "K", "A")
				s := benchRelation(40, 5, "K", "B")
				out := r.Join(s)
				if out.Empty() {
					t.Error("empty join")
					return
				}
				p := out.Project("K")
				if p.Size() != 5 {
					t.Errorf("project size %d, want 5", p.Size())
					return
				}
				sel := out.Select(func(tu Tuple) bool { return tu["K"].AsString() == "k1" })
				for _, tu := range sel.Tuples() {
					if tu["K"].AsString() != "k1" {
						t.Error("select leaked a foreign tuple")
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestInternCanonicalizes pins the variable-name interner.
func TestInternCanonicalizes(t *testing.T) {
	a := Intern(string([]byte{'V', 'a', 'r'}))
	b := Intern(string([]byte{'V', 'a', 'r'}))
	if a != b {
		t.Fatal("intern returned different strings")
	}
}

// TestAppendKeyMatchesKey pins the no-alloc key builder against Value.Key.
func TestAppendKeyMatchesKey(t *testing.T) {
	vals := []Value{
		Str("hello"), Str("42"), Str(""), Str(" 7 "),
		Num(3), Num(3.25), Num(-1e21),
		Boolean(true), Boolean(false),
		Ref("http://example.org/x"),
	}
	for _, v := range vals {
		if got := string(v.AppendKey(nil)); got != v.Key() {
			t.Errorf("AppendKey(%v) = %q, Key = %q", v, got, v.Key())
		}
	}
	tu := MustTuple("B", Str("b"), "A", Num(1), "C", Boolean(true))
	buf, _ := tu.appendKey(nil, nil)
	if string(buf) != tu.key() {
		t.Errorf("tuple appendKey %q != key %q", buf, tu.key())
	}
}
