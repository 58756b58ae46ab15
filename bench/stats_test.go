package main

import (
	"math"
	"testing"
)

func TestPickTail(t *testing.T) {
	for _, c := range []struct {
		n     int
		limit float64
		want  float64
	}{
		{5, 0.99, 0.5},      // nothing has ten samples beyond it: the median is all there is
		{20, 0.99, 0.5},     // exactly ten beyond the median
		{99, 0.99, 0.5},     // 9.9 beyond the p90
		{100, 0.99, 0.9},    // ten beyond the p90
		{999, 0.99, 0.9},    // 9.99 beyond the p99
		{1000, 0.99, 0.99},  // ten beyond the p99
		{50000, 0.99, 0.99}, // the p99.9 has them too, but the metric is a p99
		{50000, 1, 0.999},
	} {
		if got := pickTail(c.n, c.limit); got != c.want {
			t.Errorf("pickTail(%d, %v) = %v, want %v", c.n, c.limit, got, c.want)
		}
	}
}

func TestQuantile(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.9, 4.6}} {
		if got := quantile(s, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v, want 0", got)
	}
}

// The spreads have to be the driver's: Python's
// statistics.quantiles(v, n=4) on the same ten values.
func TestQuartilesMatchPython(t *testing.T) {
	v := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}
	q1, q3 := quartiles(v) // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	if got, want := spread(v), 5.5/5.5; got != want {
		t.Fatalf("spread = %v, want %v", got, want)
	}
	q1, q3 = quartiles([]float64{1, 2, 4}) // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1 != 1 || q3 != 4 {
		t.Fatalf("quartiles of three = %v, %v; want 1, 4", q1, q3)
	}
}
