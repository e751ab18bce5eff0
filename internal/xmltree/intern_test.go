package xmltree

import (
	"fmt"
	"runtime"
	"testing"
)

// TestInternTableBounded parses 10⁵ documents that each carry one fresh
// element and attribute name, as any POST /events client can send: the
// intern table must stay at its cap and the live heap must not keep the
// names.
func TestInternTableBounded(t *testing.T) {
	heap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := heap()
	for i := 0; i < 100_000; i++ {
		if _, err := ParseString(fmt.Sprintf(`<e%d a%d="v"/>`, i, i)); err != nil {
			t.Fatal(err)
		}
	}
	after := heap()
	interned.RLock()
	n := len(interned.m)
	interned.RUnlock()
	if n > maxInterned {
		t.Errorf("intern table holds %d names, cap %d", n, maxInterned)
	}
	if after > before && after-before > 2<<20 {
		t.Errorf("live heap grew by %d bytes after 10⁵ unique names, want < 2 MiB", after-before)
	}
}
