package bench

import (
	"flag"
	"fmt"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/domain/travel"
	"repro/internal/grh"
	"repro/internal/protocol"
)

var update = flag.Bool("update", false, "rewrite testdata/figs.golden from the current replay")

// TestFiguresGolden pins every figure replay byte for byte: the output of
// ecabench -figs, ports masked, must equal testdata/figs.golden. Rewrite
// the golden with go test ./internal/bench -run FiguresGolden -update.
func TestFiguresGolden(t *testing.T) {
	var b strings.Builder
	RunFigures(&b, func(n int, err error) { t.Errorf("figure %d: %v", n, err) })
	got := normalizePorts(b.String())
	const golden = "testdata/figs.golden"
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	// Each figure is compared on its own, so a difference is reported
	// under the figure it is in; the whole file is compared last, for what
	// lies outside every figure.
	gotFigs, wantFigs := splitFigures(got), splitFigures(string(want))
	if len(wantFigs) != len(Figures()) {
		t.Fatalf("%s holds %d figures, want %d", golden, len(wantFigs), len(Figures()))
	}
	for _, n := range Figures() {
		t.Run(figName(n), func(t *testing.T) {
			if gotFigs[n] != wantFigs[n] {
				t.Errorf("figure %d differs from %s:%s", n, golden, firstDiff(wantFigs[n], gotFigs[n]))
			}
		})
	}
	if got != string(want) {
		t.Fatalf("figure replays differ from %s:%s", golden, firstDiff(string(want), got))
	}
}

var figureBanner = regexp.MustCompile(`(?m)^════════ Figure (\d+) ════════$`)

// splitFigures cuts RunFigures output at its banners, keyed by figure.
func splitFigures(s string) map[int]string {
	figs := map[int]string{}
	marks := figureBanner.FindAllStringSubmatchIndex(s, -1)
	for i, m := range marks {
		end := len(s)
		if i+1 < len(marks) {
			end = marks[i+1][0]
		}
		n, _ := strconv.Atoi(s[m[2]:m[3]])
		figs[n] = s[m[0]:end]
	}
	return figs
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
	return ephemeralPort.ReplaceAllString(s, "127.0.0.1:PORT")
}

// TestCachedVsFreshFigureReplays: reusing a rule's compiled forms, kept
// from its registration, across events carries no state. The message-flow
// figures (Figs. 5–11) of one scenario whose services get no compiled form
// (every dispatch compiles the text afresh) are byte-identical to the
// golden, which the kept forms produced.
func TestCachedVsFreshFigureReplays(t *testing.T) {
	want, err := os.ReadFile("testdata/figs.golden")
	if err != nil {
		t.Fatal(err)
	}
	wantFigs := splitFigures(string(want))
	run, err := runScenario(func(sc *travel.Scenario) {
		for _, lang := range sc.GRH.Languages() {
			d, _ := sc.GRH.Lookup(lang)
			if d.Local == nil {
				continue
			}
			fresh, inner := *d, d.Local
			fresh.Local = grh.ServiceFunc(func(req *protocol.Request) (*protocol.Answer, error) {
				req.Compiled = nil
				return inner.Handle(req)
			})
			if err := sc.GRH.Register(fresh); err != nil {
				t.Fatal(err)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer run.Cleanup()
	for _, n := range []int{5, 6, 7, 8, 9, 10, 11} {
		t.Run(fmt.Sprintf("fig%d", n), func(t *testing.T) {
			var b strings.Builder
			fmt.Fprintf(&b, "════════ Figure %d ════════\n\n", n)
			if err := replayFlow(n, &b, run); err != nil {
				t.Fatal(err)
			}
			got, want := strings.TrimRight(normalizePorts(b.String()), "\n"), strings.TrimRight(wantFigs[n], "\n")
			if got != want {
				t.Fatalf("replay without compiled forms differs from the golden:%s", firstDiff(want, got))
			}
		})
	}
}

// firstDiff renders the first differing line for a readable failure.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("\n  line %d:\n  want: %q\n  got:  %q", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("\n  lengths differ: want %d lines, got %d", len(al), len(bl))
}
