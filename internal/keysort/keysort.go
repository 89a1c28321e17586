// Package keysort sorts result slices by a canonical string key that is
// built once per element. Evaluators order their outputs by (length, key)
// for deterministic rendering; building the keys inside a comparator
// would cost two key builds per comparison instead of one per element.
package keysort

import (
	"cmp"
	"slices"
	"strings"
)

// Sort orders xs ascending by (rank, key), where key(i) returns the rank
// and key of xs[i] as it stands before sorting. key is called exactly once
// per element, before any element moves. Elements with equal rank and key
// are interchangeable by construction at every call site (the key is the
// element's identity), so the sort need not be stable.
func Sort[T any](xs []T, key func(i int) (rank int, k string)) {
	type entry struct {
		rank int
		key  string
		x    T
	}
	es := make([]entry, len(xs))
	for i := range xs {
		r, k := key(i)
		es[i] = entry{rank: r, key: k, x: xs[i]}
	}
	slices.SortFunc(es, func(a, b entry) int {
		if c := cmp.Compare(a.rank, b.rank); c != 0 {
			return c
		}
		return strings.Compare(a.key, b.key)
	})
	for i := range es {
		xs[i] = es[i].x
	}
}
