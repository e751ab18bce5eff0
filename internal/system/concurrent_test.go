package system

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/protocol"
)

// TestConcurrentRulesThroughCachedForms drives two rules with the same test
// expression from many goroutines at once (run under -race): the compiled
// form each rule keeps from its registration is evaluated by all its
// in-flight instances, so it must be safe for concurrent evaluation and
// must not leak bindings between events.
func TestConcurrentRulesThroughCachedForms(t *testing.T) {
	sys, err := NewLocal(Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(sys.Mux(nil, nil))
	defer srv.Close()

	// Both rules carry the same test expression; each evaluates it through
	// the *xpath.Expr compiled when it was registered.
	rule := func(id, action string) string {
		return `<eca:rule xmlns:eca="` + protocol.ECANS + `" xmlns:t="` + tNS + `" id="` + id + `">
		  <eca:event><t:ping x="$X"/></eca:event>
		  <eca:test>$X != 'skip'</eca:test>
		  <eca:action><t:` + action + ` x="$X"/></eca:action>
		</eca:rule>`
	}
	for _, r := range []string{rule("cached-a", "pong"), rule("cached-b", "echo")} {
		resp, err := http.Post(srv.URL+"/engine/rules", "application/xml", strings.NewReader(r))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("register: %d %q", resp.StatusCode, body)
		}
	}

	// The hook collects every notification: the 320 this test sends are
	// more than Sent keeps.
	var mu sync.Mutex
	var sent []Notification
	sys.Notifier.OnSend(func(n Notification) {
		mu.Lock()
		sent = append(sent, n)
		mu.Unlock()
	})

	const goroutines, perG = 8, 25
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				x := fmt.Sprintf("g%dv%d", g, i)
				if i%5 == 0 {
					x = "skip" // filtered by the shared test expression
				}
				ev := `<t:ping xmlns:t="` + tNS + `" x="` + x + `"/>`
				resp, err := http.Post(srv.URL+"/events", "application/xml", strings.NewReader(ev))
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("event %q: status %d", x, resp.StatusCode)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	// Each non-skip event fires both rules; skip events fire neither.
	passing := goroutines * perG * 4 / 5
	if got, want := len(sent), passing*2; got != want || sys.Notifier.Count() != want {
		t.Fatalf("notifications = %d (count %d), want %d", got, sys.Notifier.Count(), want)
	}
	// No filtered binding leaked through a shared compiled form, and every
	// notification carries the binding of its own event.
	seen := map[string]int{}
	for _, n := range sent {
		x := n.Message.AttrValue("", "x")
		if x == "skip" {
			t.Fatalf("filtered event fired: %s", n.Message)
		}
		seen[n.Message.Name.Local+"/"+x]++
	}
	for g := 0; g < goroutines; g++ {
		for i := 0; i < perG; i++ {
			if i%5 == 0 {
				continue
			}
			x := fmt.Sprintf("g%dv%d", g, i)
			for _, action := range []string{"pong", "echo"} {
				if seen[action+"/"+x] != 1 {
					t.Fatalf("event %s fired %s %d times, want 1", x, action, seen[action+"/"+x])
				}
			}
		}
	}
}
