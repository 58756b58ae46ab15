// Package stats provides the summary statistics the experiment harness
// uses to report results in the paper's format (the Section 4 table
// reports min/max/average/standard deviation of pairwise document angles):
// batch and streaming (Welford) summaries, quantiles and histograms.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary holds the order statistics the paper's experiment table reports.
type Summary struct {
	N    int
	Min  float64
	Max  float64
	Mean float64
	Std  float64 // population standard deviation
}

// Summarize computes a Summary over xs. An empty input yields a zero
// Summary with N == 0.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	var acc Welford
	mn, mx := xs[0], xs[0]
	for _, x := range xs {
		acc.Add(x)
		if x < mn {
			mn = x
		}
		if x > mx {
			mx = x
		}
	}
	return Summary{N: len(xs), Min: mn, Max: mx, Mean: acc.Mean(), Std: acc.Std()}
}

// String renders the summary in the paper's row format.
func (s Summary) String() string {
	return fmt.Sprintf("min=%.3g max=%.3g avg=%.3g std=%.3g (n=%d)", s.Min, s.Max, s.Mean, s.Std, s.N)
}

// Welford is an online mean/variance accumulator (numerically stable
// single-pass algorithm). The zero value is ready to use.
type Welford struct {
	n    int
	mean float64
	m2   float64
}

// Add incorporates x.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// Mean returns the running mean (0 for no observations).
func (w *Welford) Mean() float64 { return w.mean }

// Var returns the population variance (0 for fewer than two observations).
func (w *Welford) Var() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n)
}

// Std returns the population standard deviation.
func (w *Welford) Std() float64 { return math.Sqrt(w.Var()) }

// Quantile returns the q-th quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics. It panics on an empty input or
// q outside [0, 1].
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		panic("stats: Quantile of empty slice")
	}
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("stats: Quantile q=%v out of [0,1]", q))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Histogram counts xs into nbins equal-width bins over [lo, hi]; values
// outside the range are clamped into the end bins. It panics if nbins < 1
// or hi <= lo.
func Histogram(xs []float64, lo, hi float64, nbins int) []int {
	if nbins < 1 {
		panic("stats: Histogram needs at least one bin")
	}
	if hi <= lo {
		panic("stats: Histogram needs hi > lo")
	}
	counts := make([]int, nbins)
	w := (hi - lo) / float64(nbins)
	for _, x := range xs {
		b := int((x - lo) / w)
		if b < 0 {
			b = 0
		}
		if b >= nbins {
			b = nbins - 1
		}
		counts[b]++
	}
	return counts
}

// MeanSlice returns the mean of xs (0 for empty input).
func MeanSlice(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
