package main

import (
	"math"
	"sort"
)

// percentile returns the exact nearest-rank p-quantile (0 < p <= 1) of
// xs: the smallest value with at least p of the samples at or below
// it. No interpolation and no buckets, so a p99 is a latency some
// request really had. xs need not be sorted; an empty xs gives 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// median is the middle value, or the mean of the two middle values.
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

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), which is
// how the acceptance check computes a metric's spread.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n < 2 {
		return median(xs), median(xs)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(k int) float64 { // k-th of 4 cut points
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}

// steady is the value a quarter of the way in from the better end of
// xs. On this box a fixed piece of work runs at one of two speeds 40 %
// apart, switching every few seconds with no steal time to show for
// it; a median flips between the two as the slow share of a run
// crosses one half, while this stays on the undisturbed speed until
// three quarters of the samples are slow.
func steady(xs []float64, better string) float64 {
	if better == "higher" {
		neg := make([]float64, len(xs))
		for i, x := range xs {
			neg[i] = -x
		}
		return -percentile(neg, 0.25)
	}
	return percentile(xs, 0.25)
}
