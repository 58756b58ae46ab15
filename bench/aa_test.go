package main

import (
	"math"
	"testing"
)

func TestWorseBy(t *testing.T) {
	for _, c := range []struct {
		a, b   float64
		better string
		want   float64
	}{
		{100, 110, "lower", 0.10},   // a latency that rose is worse
		{100, 90, "lower", -0.10},   // one that fell is better
		{100, 110, "higher", -0.10}, // a throughput that rose is better
		{100, 90, "higher", 0.10},
		{0, 5, "lower", 0}, // nothing to take a share of
	} {
		if got := worseBy(c.a, c.b, c.better); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("worseBy(%v, %v, %s) = %v, want %v", c.a, c.b, c.better, got, c.want)
		}
	}
}

// The halves are held to the bound in both directions, and the spread
// too, whichever metric it is.
func TestJudge(t *testing.T) {
	level := func(first, second float64) []float64 {
		return []float64{first, first, first, first, first, second, second, second, second, second}
	}
	for _, c := range []struct {
		name   string
		vals   []float64
		better string
		bound  float64
		steady bool
	}{
		{"flat", level(100, 100), "lower", 0.1, true},
		{"second half 5% worse", level(100, 105), "lower", 0.1, true},
		{"second half 20% worse", level(100, 120), "lower", 0.1, false},
		{"second half 20% better", level(100, 80), "lower", 0.1, false},
		{"throughput, second half 20% better", level(100, 120), "higher", 0.1, false},
		{"throughput, second half 20% worse", level(100, 80), "higher", 0.1, false},
		// The halves agree (medians 100 and 100) but the runs scatter.
		{"wide spread", []float64{70, 100, 130, 100, 100, 130, 100, 70, 100, 100}, "lower", 0.1, false},
		{"wide spread within a wide bound", []float64{70, 100, 130, 100, 100, 130, 100, 70, 100, 100}, "lower", 0.5, true},
	} {
		if got := judge(c.vals, c.better, c.bound); got.steady != c.steady {
			t.Errorf("%s: steady = %v (spread %.3f, halves %+.3f), want %v", c.name, got.steady, got.spread, got.halves, c.steady)
		}
	}
}
