package main

import (
	"math"
	"slices"
	"sort"
)

// median returns the middle of xs (mean of the two middle values for an
// even count), or 0 for no samples. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// fastest returns the smallest of xs, or 0 for no samples. Wall timings are
// reported as the fastest repetition: on a shared host every disturbance
// (stolen CPU, a neighbour evicting the cache) only ever adds time, so the
// minimum is the repetition that saw the program and least of the machine
// (README "Noise policy" has the measurements behind this).
func fastest(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return slices.Min(xs)
}

// quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) gives (the default "exclusive" method), so
// the spreads printed here are the ones the acceptance rule is stated in.
// It needs at least two samples.
func quartiles(xs []float64) (q1, q2, q3 float64, ok bool) {
	n := len(xs)
	if n < 2 {
		return 0, 0, 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3), true
}

// spread is the interquartile distance as a share of the median: the
// run-to-run noise figure every bound is judged against.
func spread(xs []float64) (float64, bool) {
	q1, q2, q3, ok := quartiles(xs)
	if !ok || q2 == 0 {
		return 0, false
	}
	return math.Abs((q3 - q1) / q2), true
}

// percentile reads the p-quantile (nearest rank) of sorted samples, but only
// when at least minBeyond samples lie beyond it: a tail percentile resting on
// fewer samples is one outlier, not a distribution.
func percentile(sorted []float64, p float64) (float64, bool) {
	const minBeyond = 10
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(p * float64(n))) // 1-based nearest rank
	if rank < 1 {
		rank = 1
	}
	if n-rank < minBeyond {
		return 0, false
	}
	return sorted[rank-1], true
}
