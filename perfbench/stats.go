package main

import (
	"math"
	"sort"
)

// percentile returns the q-quantile (0..1) of xs by linear interpolation
// between the closest ranks, the same rule as Python's
// statistics.quantiles(method="inclusive"). xs is sorted in place; an empty
// slice gives 0.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

// median is percentile(xs, 0.5).
func median(xs []float64) float64 { return percentile(xs, 0.5) }

// ratio is num/den, or 0 when den is 0 (a counter the workload never
// exercised, such as flushes on a read-only phase).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
