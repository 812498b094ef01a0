package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of an
// ascending slice: the smallest sample with at least p% of the samples at
// or below it. No interpolation, so every reported value is a latency
// that was actually observed.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)-1]
}

// rank is the 1-based nearest-rank index of the p-th percentile among n
// samples, clamped to [1, n].
func rank(n int, p float64) int {
	// The epsilon keeps products that are whole in exact arithmetic from
	// rounding up: 0.95·20 is 19.000000000000004 in float64.
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// beyond is how many of n samples lie strictly above the p-th
// percentile's rank. A tail percentile is only reported as trustworthy
// when at least minBeyond samples lie beyond it.
func beyond(n int, p float64) int { return n - rank(n, p) }

const minBeyond = 10

func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

func median(xs []float64) float64 { return percentile(sortedCopy(xs), 50) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
