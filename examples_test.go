package eca_test

import (
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"
)

var updateExamples = flag.Bool("update", false, "rewrite testdata/examples/*.golden from the current runs")

// loopbackPort masks the only nondeterminism in the examples' output: the
// OS assigns each httptest service a fresh loopback port.
var loopbackPort = regexp.MustCompile(`127\.0\.0\.1:\d+`)

// TestExamplesRun executes every example program and compares its whole
// stdout, ports masked, with testdata/examples/<name>.golden, guarding the
// documented deliverables against bitrot. Rewrite the goldens on purpose
// with go test -run ExamplesRun -update.
func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs subprocesses")
	}
	for _, name := range []string{"quickstart", "carrental", "composite", "federation", "extension"} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			out, err := exec.Command("go", "run", "./examples/"+name).Output()
			if ee := (*exec.ExitError)(nil); errors.As(err, &ee) {
				t.Fatalf("go run ./examples/%s: %v\n%s%s", name, err, out, ee.Stderr)
			} else if err != nil {
				t.Fatal(err)
			}
			got := loopbackPort.ReplaceAll(out, []byte("127.0.0.1:PORT"))
			golden := filepath.Join("testdata", "examples", name+".golden")
			if *updateExamples {
				if err := os.WriteFile(golden, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			if want, err := os.ReadFile(golden); err != nil || string(got) != string(want) {
				t.Errorf("./examples/%s output differs from %s (%v):\n--- got\n%s\n--- want\n%s", name, golden, err, got, want)
			}
		})
	}
}
