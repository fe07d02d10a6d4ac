package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must rank above a reported percentile:
// a p99 over fewer than ten slower samples is one outlier, not a tail.
const minBeyond = 10

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle of xs (the mean of the middle pair when the
// count is even), or NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-quantile of ascending samples
// (0 < p ≤ 1) and how many samples rank above it.
func percentile(asc []float64, p float64) (v float64, beyond int) {
	n := len(asc)
	if n == 0 {
		return math.NaN(), 0
	}
	idx := int(math.Ceil(p*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return asc[idx], n - 1 - idx
}

// tail is a reported percentile together with the sample count behind it.
type tail struct {
	Value   float64
	Samples int
	Beyond  int
}

// tailAt returns percentile p of xs, or an error when fewer than
// minBeyond samples rank above it.
func tailAt(xs []float64, p float64) (tail, error) {
	v, beyond := percentile(sorted(xs), p)
	t := tail{Value: v, Samples: len(xs), Beyond: beyond}
	if beyond < minBeyond {
		return t, fmt.Errorf("p%g over %d samples has only %d beyond it (need %d)", p*100, len(xs), beyond, minBeyond)
	}
	return t, nil
}
