package main

import (
	"math"
	"sort"

	"rvcte/internal/obs"
)

// quartiles returns the median and the first and third quartiles of xs
// with the "exclusive" method of Python's statistics.quantiles(n=4), so
// the spreads this benchmark reports match the ones an external checker
// computes from the same values. A single value is its own quartiles.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// median is the middle quartile.
func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// tail is the tail percentile the benchmark reports beside a median:
// p99 when at least ten samples lie beyond it, otherwise the highest
// percentile that still has ten samples beyond it, and never below the
// median. It returns the percentile used (0.5..0.99).
func tailPercentile(n int) float64 {
	if n <= 0 {
		return 0.5
	}
	p := 1 - 10/float64(n)
	return math.Max(0.5, math.Min(0.99, p))
}

// percentile is the nearest-rank p-quantile of xs (0 for no samples).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	return s[rank]
}

// histPercentile is the p-quantile of one or more obs histograms that
// share their bucket bounds, reported as the upper bound of the bucket
// holding that rank (an observation in the overflow bucket reports the
// last bound). It also returns the total sample count.
func histPercentile(hs []obs.HistSnapshot, p float64) (float64, int64) {
	if len(hs) == 0 {
		return 0, 0
	}
	bounds := hs[0].Bounds
	buckets := make([]int64, len(bounds)+1)
	var n int64
	for _, h := range hs {
		for i, c := range h.Buckets {
			if i < len(buckets) {
				buckets[i] += c
			}
		}
		n += h.Count
	}
	if n == 0 {
		return 0, 0
	}
	rank := int64(math.Ceil(p * float64(n)))
	var seen int64
	for i, c := range buckets {
		seen += c
		if seen >= rank {
			if i < len(bounds) {
				return float64(bounds[i]), n
			}
			break
		}
	}
	return float64(bounds[len(bounds)-1]), n
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never reached).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
