package main

import (
	"math"
	"sort"
)

// quantile returns the q-th quantile (0..1) of xs by linear interpolation
// between closest ranks. xs must be sorted ascending and non-empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 1 {
		return xs[0]
	}
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

// median returns the median of xs without reordering it.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// ratio returns num/den, or 0 when den is 0 (a layer that did no work).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
