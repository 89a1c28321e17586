package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// xs, which it sorts in place. It returns 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return xs[rank(len(xs), p)-1]
}

// rank is the 1-based nearest rank of the p-th percentile among n samples.
func rank(n int, p float64) int {
	// The epsilon absorbs float error such as 99.9% of 10000 = 9990.000…2.
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tailLadder are the percentiles a tail can be reported at, lowest first.
var tailLadder = []float64{50, 90, 99, 99.9}

// tailPercentile returns the highest percentile of tailLadder that has at
// least ten of n samples beyond it, or 0 when not even the median does:
// a tail read off fewer samples than that is one outlier, not a tail.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, p := range tailLadder {
		if n-rank(n, p) >= 10 {
			best = p
		}
	}
	return best
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), sorting xs in place; 0 for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sort.Float64s(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// mean returns the arithmetic mean of xs; 0 for no samples.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
