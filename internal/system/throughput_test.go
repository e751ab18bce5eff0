package system_test

// End-to-end equivalence for the GRH answer cache: the car-rental
// scenario must produce exactly the same notifications whether the cache
// is enabled or not, and however small it is. The cache is an optimization — it must never change
// what rules fire.

import (
	"testing"
	"time"

	"repro/internal/domain/travel"
	"repro/internal/grh"
	"repro/internal/system"
)

func notifications(t *testing.T, cfg system.Config) []string {
	t.Helper()
	sc, cleanup, err := travel.NewScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	defer sc.Close()

	// A mix of offers and non-offers, with repeats so the cache can hit.
	sc.Book("John Doe", "Munich", "Paris")
	sc.Book("Jane Roe", "Berlin", "Paris") // class A, Paris has B and D → no offer
	sc.Book("John Doe", "Munich", "Paris")
	sc.Book("John Doe", "Munich", "Paris")

	var out []string
	for _, n := range sc.Notifier.Sent() {
		out = append(out, n.Message.String())
	}
	return out
}

func TestThroughputLayerEquivalence(t *testing.T) {
	baseline := notifications(t, system.Config{})
	if len(baseline) != 3 {
		t.Fatalf("baseline produced %d notifications, want 3", len(baseline))
	}

	// The default policy, and two that keep the cache refilling: one entry
	// evicted by every other answer, and answers that expire at once.
	for _, c := range []struct {
		name   string
		policy grh.CachePolicy
	}{
		{"cache", grh.DefaultCachePolicy},
		{"cache/maxEntries=1", grh.CachePolicy{MaxEntries: 1, TTL: time.Hour}},
		{"cache/ttl=1ns", grh.CachePolicy{MaxEntries: 4096, TTL: time.Nanosecond}},
	} {
		t.Run(c.name, func(t *testing.T) {
			got := notifications(t, system.Config{Cache: c.policy})
			if len(got) != len(baseline) {
				t.Fatalf("%d notifications, baseline %d:\n%v", len(got), len(baseline), got)
			}
			for i := range baseline {
				if got[i] != baseline[i] {
					t.Errorf("notification %d differs:\ngot:      %s\nbaseline: %s", i, got[i], baseline[i])
				}
			}
		})
	}
}
