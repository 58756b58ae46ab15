package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDotNormKnown(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{4, -5, 6}
	if got := Dot(x, y); got != 12 {
		t.Fatalf("Dot = %v want 12", got)
	}
	if got := Norm([]float64{3, 4}); math.Abs(got-5) > 1e-14 {
		t.Fatalf("Norm = %v want 5", got)
	}
}

func TestNormOverflowSafety(t *testing.T) {
	big := []float64{1e200, 1e200}
	got := Norm(big)
	want := 1e200 * math.Sqrt2
	if math.IsInf(got, 0) || math.Abs(got-want)/want > 1e-12 {
		t.Fatalf("Norm overflow: got %v want %v", got, want)
	}
}

func TestAxpyScaleNormalize(t *testing.T) {
	y := []float64{1, 1}
	Axpy(2, []float64{3, 4}, y)
	if y[0] != 7 || y[1] != 9 {
		t.Fatalf("Axpy = %v", y)
	}
	ScaleVec(0.5, y)
	if y[0] != 3.5 {
		t.Fatalf("ScaleVec = %v", y)
	}
	v := []float64{0, 3, 4}
	n := Normalize(v)
	if math.Abs(n-5) > 1e-14 || math.Abs(Norm(v)-1) > 1e-14 {
		t.Fatalf("Normalize: n=%v v=%v", n, v)
	}
	z := []float64{0, 0}
	if Normalize(z) != 0 {
		t.Fatal("Normalize(zero) should return 0")
	}
}

func TestCosineAngle(t *testing.T) {
	e1 := []float64{1, 0}
	e2 := []float64{0, 1}
	if got := Cosine(e1, e2); got != 0 {
		t.Fatalf("Cosine orthogonal = %v", got)
	}
	if got := Cosine(e1, []float64{2, 0}); math.Abs(got-1) > 1e-14 {
		t.Fatalf("Cosine parallel = %v", got)
	}
	if got := Cosine([]float64{0, 0}, e1); got != 0 {
		t.Fatalf("Cosine with zero vector = %v, want 0", got)
	}
	// Clamp: a numerically near-parallel pair stays a valid acos argument.
	a := []float64{1, 1e-9}
	if math.IsNaN(math.Acos(Cosine(a, a))) {
		t.Fatal("acos(Cosine(self)) is NaN")
	}
}

func TestDistSum(t *testing.T) {
	if got := Dist([]float64{1, 1}, []float64{4, 5}); got != 5 {
		t.Fatalf("Dist = %v", got)
	}
	if got := SumVec([]float64{1, 2, 3.5}); got != 6.5 {
		t.Fatalf("SumVec = %v", got)
	}
}

func TestLengthMismatchPanics(t *testing.T) {
	for i, f := range []func(){
		func() { Dot([]float64{1}, []float64{1, 2}) },
		func() { Axpy(1, []float64{1}, []float64{1, 2}) },
		func() { Dist([]float64{1}, []float64{1, 2}) },
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

// Property: Cauchy-Schwarz |x·y| <= ‖x‖‖y‖ for arbitrary vectors.
func TestCauchySchwarzProperty(t *testing.T) {
	f := func(xs, ys []float64) bool {
		n := len(xs)
		if len(ys) < n {
			n = len(ys)
		}
		x, y := xs[:n], ys[:n]
		for _, v := range append(CloneVec(x), y...) {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		lhs := math.Abs(Dot(x, y))
		rhs := Norm(x) * Norm(y)
		return lhs <= rhs*(1+1e-9) || math.IsInf(rhs, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(7))}); err != nil {
		t.Error(err)
	}
}

// Property: triangle inequality for Dist.
func TestTriangleInequalityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for it := 0; it < 200; it++ {
		n := 1 + rng.Intn(10)
		x, y, z := make([]float64, n), make([]float64, n), make([]float64, n)
		for i := 0; i < n; i++ {
			x[i], y[i], z[i] = rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()
		}
		if Dist(x, z) > Dist(x, y)+Dist(y, z)+1e-9 {
			t.Fatalf("triangle inequality violated: %v %v %v", x, y, z)
		}
	}
}

// Property: cosine similarity lies in [-1, 1].
func TestCosineRangeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for it := 0; it < 500; it++ {
		n := 1 + rng.Intn(6)
		x, y := make([]float64, n), make([]float64, n)
		for i := 0; i < n; i++ {
			x[i], y[i] = rng.NormFloat64()*math.Pow(10, float64(rng.Intn(6)-3)), rng.NormFloat64()
		}
		c := Cosine(x, y)
		if c < -1 || c > 1 || math.IsNaN(c) {
			t.Fatalf("Cosine out of range: %v for %v %v", c, x, y)
		}
	}
}
