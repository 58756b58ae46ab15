package randproj

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/mat"
	"repro/internal/sparse"
)

func TestNewValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	if _, err := New(10, 0, Gaussian, rng); err == nil {
		t.Error("l=0 should error")
	}
	if _, err := New(10, 11, Gaussian, rng); err == nil {
		t.Error("l>n should error")
	}
	if _, err := New(10, 5, Kind(9), rng); err == nil {
		t.Error("unknown kind should error")
	}
	p, err := New(10, 5, Gaussian, rng)
	if err != nil {
		t.Fatal(err)
	}
	if n, l := p.r.Dims(); n != 10 || l != 5 {
		t.Fatalf("Dims = %d,%d", n, l)
	}
}

func TestOrthonormalKindIsOrthonormal(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	p, err := New(30, 8, Orthonormal, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !p.r.IsOrthonormalCols(1e-10) {
		t.Fatal("Orthonormal projection columns not orthonormal")
	}
	want := math.Sqrt(30.0 / 8.0)
	if math.Abs(p.scale-want) > 1e-12 {
		t.Fatalf("scale = %v, want %v", p.scale, want)
	}
}

func TestSignEntriesAndScale(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	p, err := New(20, 4, Sign, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range p.r.RawData() {
		if v != 1 && v != -1 {
			t.Fatalf("sign entry %v", v)
		}
	}
	if math.Abs(p.scale-0.5) > 1e-12 {
		t.Fatalf("scale = %v, want 1/sqrt(4)", p.scale)
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		Orthonormal: "orthonormal", Gaussian: "gaussian", Sign: "sign", Kind(7): "Kind(7)",
	} {
		if k.String() != want {
			t.Fatalf("String = %q, want %q", k.String(), want)
		}
	}
}

func TestJLNormPreservationAllKinds(t *testing.T) {
	// Lemma 2: E[‖x′‖²] = ‖x‖² with concentration. Average over many
	// projections must be close; individual ones within a loose band.
	n, l := 200, 64
	x := make([]float64, n)
	rng := rand.New(rand.NewSource(94))
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	n2 := mat.Dot(x, x)
	for _, kind := range []Kind{Orthonormal, Gaussian, Sign} {
		var sum float64
		const trials = 60
		for trial := 0; trial < trials; trial++ {
			p, err := New(n, l, kind, rng)
			if err != nil {
				t.Fatal(err)
			}
			px := p.Apply(x)
			r := mat.Dot(px, px) / n2
			if r < 0.3 || r > 2.0 {
				t.Fatalf("%v: single-projection ratio %v wildly off", kind, r)
			}
			sum += r
		}
		avg := sum / trials
		if math.Abs(avg-1) > 0.08 {
			t.Fatalf("%v: mean norm ratio %v, want ≈1", kind, avg)
		}
	}
}

func TestApplySparseMatchesApplyDense(t *testing.T) {
	rng := rand.New(rand.NewSource(95))
	coo := sparse.NewCOO(40, 15)
	d := mat.NewDense(40, 15)
	for i := 0; i < 40; i++ {
		for j := 0; j < 15; j++ {
			if rng.Float64() < 0.2 {
				v := rng.NormFloat64()
				coo.Add(i, j, v)
				d.Set(i, j, v)
			}
		}
	}
	a := coo.ToCSR()
	p, err := New(40, 6, Orthonormal, rng)
	if err != nil {
		t.Fatal(err)
	}
	bs := p.ApplySparse(a)
	bd := p.ApplyDense(d)
	if !mat.EqualApprox(bs, bd, 1e-10) {
		t.Fatal("sparse and dense application disagree")
	}
	// Column j of B must equal Apply(column j of A).
	for j := 0; j < 15; j++ {
		want := p.Apply(a.Col(j))
		got := bs.Col(j)
		if mat.Dist(got, want) > 1e-10 {
			t.Fatalf("column %d mismatch", j)
		}
	}
}

func TestApplyDimensionPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(96))
	p, err := New(10, 3, Gaussian, rng)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range []func(){
		func() { p.ApplySparse(sparse.NewCOO(5, 2).ToCSR()) },
		func() { p.ApplyDense(mat.NewDense(5, 2)) },
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

func TestJLDim(t *testing.T) {
	l := JLDim(2000, 0.5, 4)
	want := int(math.Ceil(4 * math.Log(2000) / 0.25))
	if l != want {
		t.Fatalf("JLDim = %d, want %d", l, want)
	}
	if JLDim(1, 0.1, 4) != 1 {
		t.Fatal("JLDim for n=1 should be 1")
	}
	// Smaller eps needs more dimensions.
	if JLDim(1000, 0.1, 4) <= JLDim(1000, 0.5, 4) {
		t.Fatal("JLDim not monotone in eps")
	}
}

func TestMeasureDistortionConcentrates(t *testing.T) {
	// 30 random points in R^500 projected to l=128: distance ratios should
	// concentrate near 1 (within ~0.5 worst case at this l), inner-product
	// errors stay small.
	rng := rand.New(rand.NewSource(97))
	n, l, m := 500, 128, 30
	pts := mat.NewDense(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			pts.Set(i, j, rng.NormFloat64())
		}
	}
	p, err := New(n, l, Orthonormal, rng)
	if err != nil {
		t.Fatal(err)
	}
	rep := MeasureDistortion(pts, p)
	if rep.DistanceRatio.N != m*(m-1)/2 {
		t.Fatalf("pair count %d", rep.DistanceRatio.N)
	}
	if math.Abs(rep.DistanceRatio.Mean-1) > 0.15 {
		t.Fatalf("mean distance ratio %v", rep.DistanceRatio.Mean)
	}
	if rep.DistanceRatio.Min < 0.4 || rep.DistanceRatio.Max > 1.8 {
		t.Fatalf("distance ratio range [%v,%v]", rep.DistanceRatio.Min, rep.DistanceRatio.Max)
	}
	if rep.InnerProductErr.Max > 0.5 {
		t.Fatalf("inner-product error %v", rep.InnerProductErr.Max)
	}
	if math.Abs(rep.NormRatio.Mean-1) > 0.15 {
		t.Fatalf("norm ratio mean %v", rep.NormRatio.Mean)
	}
}

func TestMeasureDistortionDegenerate(t *testing.T) {
	rng := rand.New(rand.NewSource(98))
	pts := mat.NewDense(3, 10) // all zero points
	p, err := New(10, 2, Gaussian, rng)
	if err != nil {
		t.Fatal(err)
	}
	rep := MeasureDistortion(pts, p)
	if rep.DistanceRatio.N != 0 || rep.NormRatio.N != 0 {
		t.Fatal("zero points should produce no ratio samples")
	}
	if rep.InnerProductErr.Max != 0 {
		t.Fatal("zero points should have zero inner-product error")
	}
}

// Property: higher l gives tighter distance concentration (monotone in
// expectation; tested on averages over trials).
func TestDistortionImprovesWithDimension(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	n, m := 300, 15
	pts := mat.NewDense(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			pts.Set(i, j, rng.NormFloat64())
		}
	}
	spread := func(l int) float64 {
		var s float64
		const trials = 10
		for trial := 0; trial < trials; trial++ {
			p, err := New(n, l, Gaussian, rng)
			if err != nil {
				t.Fatal(err)
			}
			rep := MeasureDistortion(pts, p)
			s += rep.DistanceRatio.Std
		}
		return s / trials
	}
	if s16, s128 := spread(16), spread(128); s128 >= s16 {
		t.Fatalf("distortion spread did not shrink: l=16 %v, l=128 %v", s16, s128)
	}
}
