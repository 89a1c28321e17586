package keysort

import (
	"math/rand"
	"sort"
	"strconv"
	"testing"
)

// TestSortMatchesComparatorSort checks that Sort orders exactly like a
// sort.Slice whose comparator rebuilds (rank, key) on every comparison,
// and that it builds each key once.
func TestSortMatchesComparatorSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(200)
		xs := make([]int, n)
		for i := range xs {
			xs[i] = rng.Intn(1000) // distinct keys are not required: equal keys are equal values
		}
		rank := func(x int) int { return x % 7 }
		key := func(x int) string { return "N" + strconv.Itoa(x) + "." }
		want := append([]int(nil), xs...)
		sort.Slice(want, func(i, j int) bool {
			if rank(want[i]) != rank(want[j]) {
				return rank(want[i]) < rank(want[j])
			}
			return key(want[i]) < key(want[j])
		})
		calls := 0
		Sort(xs, func(i int) (int, string) {
			calls++
			return rank(xs[i]), key(xs[i])
		})
		if calls != n {
			t.Fatalf("trial %d: key called %d times for %d elements", trial, calls, n)
		}
		for i := range want {
			if xs[i] != want[i] {
				t.Fatalf("trial %d: position %d = %d, want %d", trial, i, xs[i], want[i])
			}
		}
	}
}
