package bench

import (
	"bytes"
	"fmt"
	"regexp"
	"strings"
	"testing"

	"repro/internal/compilecache"
)

// TestFigureContent pins the load-bearing content of each regenerated
// figure: the reproduction is wrong if these markers disappear.
func TestFigureContent(t *testing.T) {
	wants := map[int][]string{
		1: {
			"rules:car-rental rdf:type eca:Rule",
			"eca:bindsVariable \"OwnCar\"",
			"ontology validation of rule \"car-rental\": OK",
		},
		2: {
			"SNOOP detection service",
			"Query languages",
			"Datalog service",
			"travel domain",
		},
		3: {
			"/services/matcher",
			"notification(s)",
			"Opel Astra",
		},
		4: {
			"car-rental",
			"binds $OwnCar",
			"opaque",
			"steps=3, actions=1",
		},
		5: {
			`kind="register-event"`,
			"atomic event matcher",
			"$Person",
		},
		6: {
			"instance created",
			`Person="John Doe"`,
			`Dest="Paris"`,
		},
		7: {
			`component="query[1]"`,
			"John Doe",
		},
		8: {
			"VW Golf",
			"VW Passat",
			"2 tuple(s)",
		},
		9: {
			"VW Golf",
			"VW Passat",
			"http-get",
		},
		10: {
			"log:answers",
			"Opel Astra",
			"Renault Espace",
		},
		11: {
			"after query[3]: 1 tuple(s)",
			`ownCar="VW Passat"`,
			`class="B"`,
		},
	}
	for _, n := range Figures() {
		n := n
		t.Run(figName(n), func(t *testing.T) {
			var b strings.Builder
			if err := RunFigure(n, &b); err != nil {
				t.Fatal(err)
			}
			out := b.String()
			for _, want := range wants[n] {
				if !strings.Contains(out, want) {
					t.Errorf("figure %d output lacks %q\n----\n%s", n, want, out)
				}
			}
		})
	}
}

func figName(n int) string {
	return "fig" + string(rune('0'+n/10)) + string(rune('0'+n%10))
}

func TestUnknownFigure(t *testing.T) {
	var b strings.Builder
	if err := RunFigure(12, &b); err == nil {
		t.Error("figure 12 should not exist")
	}
}

// ephemeralPort scrubs the only nondeterminism in figure replays: the OS
// assigns each httptest service a fresh loopback port, which leaks into the
// traced request URLs.
var ephemeralPort = regexp.MustCompile(`127\.0\.0\.1:\d+`)

func normalizePorts(s string) string {
	return ephemeralPort.ReplaceAllString(s, "127.0.0.1:0")
}

// TestCachedVsFreshFigureReplays is the compile-once property test: every
// message-flow figure (Figs. 5–11) must replay byte-identically whether the
// expressions are compiled fresh per dispatch (cache disabled) or served
// from a warm cache. Any divergence means a cached compiled form carries
// state between evaluations.
func TestCachedVsFreshFigureReplays(t *testing.T) {
	cache := compilecache.Default
	defer func() {
		cache.SetCapacity(compilecache.DefaultCapacity)
		cache.Purge()
	}()

	run := func(n int) (string, error) {
		var buf bytes.Buffer
		err := RunFigure(n, &buf)
		return normalizePorts(buf.String()), err
	}

	for _, n := range []int{5, 6, 7, 8, 9, 10, 11} {
		t.Run(fmt.Sprintf("fig%d", n), func(t *testing.T) {
			// Fresh: the cache is bypassed, every Get compiles.
			cache.SetCapacity(0)
			cache.Purge()
			fresh, err := run(n)
			if err != nil {
				t.Fatalf("fresh replay: %v", err)
			}
			// Cached: warm the cache with one full replay, then compare a
			// second replay served entirely from cached compiled forms.
			cache.SetCapacity(compilecache.DefaultCapacity)
			cache.Purge()
			if _, err := run(n); err != nil {
				t.Fatalf("warming replay: %v", err)
			}
			cached, err := run(n)
			if err != nil {
				t.Fatalf("cached replay: %v", err)
			}
			if cached != fresh {
				t.Fatalf("cached replay diverges from fresh:%s", firstDiff(fresh, cached))
			}
		})
	}
}

// firstDiff renders the first differing line for a readable failure.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("\n  line %d:\n  fresh:  %q\n  cached: %q", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("\n  lengths differ: fresh %d lines, cached %d lines", len(al), len(bl))
}
