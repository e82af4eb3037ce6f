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

// median of xs; NaN when xs is empty, so an absent measurement can never be
// mistaken for a zero one.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailLadder is the set of percentiles a tail may be reported at, each with
// the share of samples beyond it as 1/den (integers, so that ten thousand
// samples have exactly ten beyond p99.9).
var tailLadder = []struct {
	pct float64
	den int
}{{90, 10}, {95, 20}, {99, 100}, {99.9, 1000}, {99.99, 10000}}

// tail reports the highest ladder percentile that still has at least ten
// samples beyond it, and its value. With too few samples for any rung it
// falls back to the median (pct 50): a "p99" of 40 samples is one outlier.
func tail(xs []float64) (pct, value float64) {
	s := sorted(xs)
	n := len(s)
	pct, value = 50, median(xs)
	for _, rung := range tailLadder {
		beyond := n / rung.den
		if beyond < 10 {
			break
		}
		pct, value = rung.pct, s[n-1-beyond]
	}
	return pct, value
}

// quartiles mirrors Python's statistics.quantiles(values, n=4) (the default
// "exclusive" method), which is what the driver's acceptance rule uses.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s) // at least 2, as in Python
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := k*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

// spread is the interquartile distance as a share of the median — the
// figure a metric's bound has to exceed.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}
