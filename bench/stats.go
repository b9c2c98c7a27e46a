//go:build unix

package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of the
// samples: the smallest value with at least p% of the samples at or below
// it. The slice is not modified. An empty slice yields 0.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// median is the value a metric reports over rounds: the mean of the two
// middle values when the count is even, so two rounds do not silently pick
// the slower one.
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range samples {
		sum += v
	}
	return sum / float64(len(samples))
}

func minMax(samples []float64) (lo, hi float64) {
	if len(samples) == 0 {
		return 0, 0
	}
	lo, hi = samples[0], samples[0]
	for _, v := range samples[1:] {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	return lo, hi
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(samples, n=4) does (the rule the benchmark driver
// judges spread by). Below four samples that rule extrapolates past the
// data, so the extremes stand in.
func quartiles(samples []float64) (q1, q3 float64) {
	n := len(samples)
	if n < 4 {
		return minMax(samples)
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	at := func(i int) float64 { // i-th of 4 cut points
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// tailLadder are the percentiles a latency tail may be reported at. The
// ladder stops at p95: a run never pools the thousand samples p99 needs.
var tailLadder = []float64{50, 75, 90, 95}

// tailPercentile applies the reporting rule of the choosing-metrics guide:
// beside the median, report the highest percentile that still has at least
// ten samples beyond it. With fewer than twenty samples that is the median
// itself.
func tailPercentile(n int) float64 {
	best := tailLadder[0]
	for _, p := range tailLadder {
		beyond := n - int(math.Ceil(p/100*float64(n)))
		if beyond >= 10 {
			best = p
		}
	}
	return best
}
