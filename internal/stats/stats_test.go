package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSummarizeKnown(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4})
	if s.N != 4 || s.Min != 1 || s.Max != 4 || math.Abs(s.Mean-2.5) > 1e-14 {
		t.Fatalf("Summary = %+v", s)
	}
	wantStd := math.Sqrt(1.25) // population
	if math.Abs(s.Std-wantStd) > 1e-14 {
		t.Fatalf("Std = %v, want %v", s.Std, wantStd)
	}
}

func TestSummarizeEmptyAndSingle(t *testing.T) {
	if s := Summarize(nil); s.N != 0 {
		t.Fatalf("empty summary = %+v", s)
	}
	s := Summarize([]float64{7})
	if s.Min != 7 || s.Max != 7 || s.Mean != 7 || s.Std != 0 {
		t.Fatalf("single summary = %+v", s)
	}
	if s.String() == "" {
		t.Fatal("String empty")
	}
}

func TestWelfordMatchesTwoPass(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	xs := make([]float64, 1000)
	var w Welford
	for i := range xs {
		xs[i] = rng.NormFloat64()*3 + 10
		w.Add(xs[i])
	}
	mean := MeanSlice(xs)
	var v float64
	for _, x := range xs {
		v += (x - mean) * (x - mean)
	}
	v /= float64(len(xs))
	if math.Abs(w.Mean()-mean) > 1e-10 || math.Abs(w.Var()-v) > 1e-8 {
		t.Fatalf("Welford mean=%v var=%v, two-pass mean=%v var=%v", w.Mean(), w.Var(), mean, v)
	}
	if w.n != 1000 {
		t.Fatalf("n = %d", w.n)
	}
}

func TestWelfordDegenerate(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Var() != 0 || w.Std() != 0 {
		t.Fatal("zero-value Welford should report zeros")
	}
	w.Add(5)
	if w.Var() != 0 {
		t.Fatal("one observation should have zero variance")
	}
}

func TestQuantilePanics(t *testing.T) {
	for i, f := range []func(){
		func() { Histogram(nil, 0, 1, 0) },
		func() { Histogram(nil, 1, 1, 3) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

func TestHistogram(t *testing.T) {
	xs := []float64{0.1, 0.2, 0.6, 0.9, -5, 42}
	h := Histogram(xs, 0, 1, 2)
	// -5 clamps into bin 0, 42 clamps into bin 1.
	if h[0] != 3 || h[1] != 3 {
		t.Fatalf("Histogram = %v", h)
	}
}

// Property: Summarize respects Min <= Mean <= Max and Std >= 0.
func TestSummarizeOrderingProperty(t *testing.T) {
	f := func(xs []float64) bool {
		clean := xs[:0:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e150 {
				clean = append(clean, x)
			}
		}
		if len(clean) == 0 {
			return true
		}
		s := Summarize(clean)
		return s.Min <= s.Mean+1e-9*math.Abs(s.Mean)+1e-300 &&
			s.Mean <= s.Max+1e-9*math.Abs(s.Max)+1e-300 &&
			s.Std >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(32))}); err != nil {
		t.Error(err)
	}
}
