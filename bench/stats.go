package main

import (
	"math"
	"sort"
)

// tailPercentiles are the tail percentiles a timing may be reported at,
// ascending.
var tailPercentiles = []float64{0.5, 0.9, 0.99, 0.999}

// pickTail returns the highest percentile of tailPercentiles that still
// has at least ten of n samples beyond it, and at most limit. A p99 over
// 300 samples is three samples' opinion, so it is reported as a p90.
func pickTail(n int, limit float64) float64 {
	best := tailPercentiles[0]
	for _, p := range tailPercentiles {
		if p <= limit && float64(n)*(1-p) >= 10-1e-9 { // 1-0.9 is a hair under 0.1
			best = p
		}
	}
	return best
}

// quantile is the p-quantile of sorted values by linear interpolation
// between closest ranks.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(sorted)-1)
	return sorted[lo] + (pos-float64(lo))*(sorted[hi]-sorted[lo])
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(v, n=4) does (the exclusive method), which is what
// the driver computes spreads with.
func quartiles(v []float64) (q1, q3 float64) {
	s := sortedCopy(v)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 { // i-th of 4 cut points, 1-based
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the distance between the quartiles as a share of the median.
func spread(v []float64) float64 {
	m := median(v)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	return (q3 - q1) / math.Abs(m)
}
