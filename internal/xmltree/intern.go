package xmltree

import "sync"

// maxInterned caps the intern table. Past it, names are returned
// uninterned: still correct, because Name compares by value, and a client
// posting documents full of fresh names cannot grow the table for good.
const maxInterned = 1 << 13

// interned canonicalizes the strings of parsed names: local names,
// namespace URIs and unbound prefixes. Documents flowing through the
// engine repeat the same handful of names (eca:rule, log:variable, …) in
// every event and answer; sharing one string per name keeps parse from
// re-allocating them and makes the many Name comparisons in path
// evaluation compare shared backings. (This package cannot use
// bindings.Intern — bindings imports xmltree.)
var interned = struct {
	sync.RWMutex
	m map[string]string
}{m: make(map[string]string)}

// internBytes returns the canonical string equal to b, adding it to the
// table while there is room. Once the table is full a miss does not take
// the write lock, so parsers never queue behind it.
func internBytes(b []byte) string {
	interned.RLock()
	s, ok := interned.m[string(b)]
	full := len(interned.m) >= maxInterned
	interned.RUnlock()
	if ok {
		return s
	}
	s = string(b)
	if full {
		return s
	}
	interned.Lock()
	if t, ok := interned.m[s]; ok {
		s = t
	} else if len(interned.m) < maxInterned {
		interned.m[s] = s
	}
	interned.Unlock()
	return s
}
