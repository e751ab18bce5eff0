// Package e2etest is the harness of the root *_e2e_test.go files, which
// drive the real binaries: it builds ecad and ecactl once per test binary,
// boots daemons on loopback ports, waits for readiness on /healthz rather
// than for a fixed time, and offers SIGKILL and GET.
package e2etest

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

var build struct {
	once sync.Once
	dir  string
	err  error
	out  []byte
}

// Main runs the tests and then removes the binaries Binaries built; call
// it from TestMain as os.Exit(e2etest.Main(m)).
func Main(m *testing.M) int {
	defer func() { os.RemoveAll(build.dir) }()
	return m.Run()
}

// Binaries returns the paths of the ecad and ecactl binaries, building
// them on first use; every later call in the same test binary reuses them.
func Binaries(t testing.TB) (ecad, ecactl string) {
	t.Helper()
	build.once.Do(func() {
		if build.dir, build.err = os.MkdirTemp("", "eca-e2e-"); build.err == nil {
			// -o dir/ with two main packages writes one binary per package.
			build.out, build.err = exec.Command("go", "build", "-o", build.dir+string(filepath.Separator),
				"repro/cmd/ecad", "repro/cmd/ecactl").CombinedOutput()
		}
	})
	if build.err != nil {
		t.Fatalf("build ecad, ecactl: %v\n%s", build.err, build.out)
	}
	return filepath.Join(build.dir, "ecad"), filepath.Join(build.dir, "ecactl")
}

// FreeAddr returns a loopback host:port that was free a moment ago.
func FreeAddr(t testing.TB) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

// Daemon is one running ecad.
type Daemon struct {
	Base string // http://host:port

	t      testing.TB
	cmd    *exec.Cmd
	exited chan struct{} // closed once the process has been reaped
}

// Start runs ecad -addr addr args... with its output on the test's stderr
// and returns once /healthz reports the daemon ready, which ecad does only
// after recovery, its start-up rules and its cluster are in. A daemon that
// exits first fails the test at once. The daemon is killed when the test
// ends.
func Start(t testing.TB, addr string, args ...string) *Daemon {
	t.Helper()
	ecad, _ := Binaries(t)
	d := &Daemon{Base: "http://" + addr, t: t, exited: make(chan struct{})}
	d.cmd = exec.Command(ecad, append([]string{"-addr", addr}, args...)...)
	d.cmd.Stdout, d.cmd.Stderr = os.Stderr, os.Stderr
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() {
		d.cmd.Wait()
		close(d.exited)
	}()
	t.Cleanup(d.Kill)
	Eventually(t, "ecad "+addr+" ready on /healthz", func() bool {
		select {
		case <-d.exited:
			t.Fatalf("ecad %s exited before it was ready: %v", addr, d.cmd.ProcessState)
		default:
		}
		resp, err := http.Get(d.Base + "/healthz")
		if err != nil {
			return false
		}
		defer resp.Body.Close()
		var h struct{ Ready bool }
		return resp.StatusCode == http.StatusOK && json.NewDecoder(resp.Body).Decode(&h) == nil && h.Ready
	})
	return d
}

// Kill SIGKILLs the daemon — no shutdown hook runs — and waits until the
// process is gone. Killing a dead daemon is a no-op.
func (d *Daemon) Kill() {
	d.cmd.Process.Kill()
	<-d.exited
}

// Get fetches a path from the daemon and returns status and body.
func (d *Daemon) Get(path string) (int, string) {
	d.t.Helper()
	resp, err := http.Get(d.Base + path)
	if err != nil {
		d.t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body) // a short body fails the caller's check on it
	return resp.StatusCode, string(body)
}

// Eventually polls cond until it holds. The two-minute cap only turns a
// hang into a failure that names what was awaited; nothing passes by
// waiting it out.
func Eventually(t testing.TB, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Minute); !cond(); time.Sleep(20 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for: %s", what)
		}
	}
}
