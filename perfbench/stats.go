package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle of the sample (mean of the two middle values for
// an even count); 0 for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// nearestRank is the q-quantile by the nearest-rank rule (the value at
// rank ceil(q*n)), the convention the load package's percentiles use.
func nearestRank(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// tailBeyond is the highest percentile of the sample that still has at
// least `beyond` samples above it: the value with exactly `beyond`
// larger ranks. A sample too small to support it reports its maximum.
func tailBeyond(xs []float64, beyond int) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	i := len(s) - 1 - beyond
	if i < 0 {
		i = len(s) - 1
	}
	return s[i]
}

// quartileSpread is the distance between the first and third quartiles
// as a share of the median (0 when the median is 0).
func quartileSpread(xs []float64) float64 {
	m := median(xs)
	if m == 0 || len(xs) < 2 {
		return 0
	}
	return (nearestRank(xs, 0.75) - nearestRank(xs, 0.25)) / m
}
