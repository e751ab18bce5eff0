package eca_test

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/e2etest"
)

// TestMain removes the binaries the *_e2e tests share once the package is done.
func TestMain(m *testing.M) { os.Exit(e2etest.Main(m)) }

// TestBinariesEndToEnd builds the real ecad and ecactl binaries, starts the
// daemon with the car-rental scenario, drives it with the client, and
// checks the stats — the full deployment story of the README.
func TestBinariesEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	_, ecactl := e2etest.Binaries(t)
	base := e2etest.Start(t, e2etest.FreeAddr(t), "-travel").Base

	run := func(args ...string) string {
		t.Helper()
		out, err := exec.Command(ecactl, append([]string{"-s", base}, args...)...).CombinedOutput()
		if err != nil {
			t.Fatalf("ecactl %v: %v\n%s", args, err, out)
		}
		return string(out)
	}

	run("book", "John Doe", "Munich", "Paris")
	stats := run("stats")
	for _, want := range []string{"rules 1", "instances_created 1", "instances_completed 1", "notifications 1"} {
		if !strings.Contains(stats, want) {
			t.Errorf("stats missing %q:\n%s", want, stats)
		}
	}

	// Register a second rule through the client and fire it.
	ruleFile := filepath.Join(dir, "rule.xml")
	ruleXML := `<eca:rule xmlns:eca="http://www.semwebtech.org/languages/2006/eca-ml"
	    xmlns:t="http://t/" id="cli-rule">
	  <eca:event><t:e x="$X"/></eca:event>
	  <eca:action><t:a x="$X"/></eca:action>
	</eca:rule>`
	if err := os.WriteFile(ruleFile, []byte(ruleXML), 0o644); err != nil {
		t.Fatal(err)
	}
	if out := run("register", ruleFile); !strings.Contains(out, "cli-rule") {
		t.Fatalf("register output = %q", out)
	}
	evFile := filepath.Join(dir, "event.xml")
	if err := os.WriteFile(evFile, []byte(`<t:e xmlns:t="http://t/" x="9"/>`), 0o644); err != nil {
		t.Fatal(err)
	}
	run("event", evFile)
	stats = run("stats")
	if !strings.Contains(stats, "rules 2") || !strings.Contains(stats, "notifications 2") {
		t.Errorf("after cli rule:\n%s", stats)
	}
	fmt.Fprintln(os.Stderr, "binary e2e OK")
}
