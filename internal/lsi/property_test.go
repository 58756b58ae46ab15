package lsi

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/corpus"
	"repro/internal/mat"
)

// Property: Project is linear — Project(αx + βy) = α·Project(x) + β·Project(y).
// Linearity is what makes fold-in and query processing consistent with the
// stored document representations.
func TestProjectLinearityProperty(t *testing.T) {
	c := testCorpus(t, 3, 10, 0.05, 25, 301)
	ix, err := Build(corpus.TermDocMatrix(c, corpus.CountWeighting), 3, Options{Engine: EngineDense})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(302))
	n := ix.NumTerms()
	for trial := 0; trial < 100; trial++ {
		x := make([]float64, n)
		y := make([]float64, n)
		for i := 0; i < n; i++ {
			x[i] = rng.NormFloat64()
			y[i] = rng.NormFloat64()
		}
		alpha, beta := rng.NormFloat64(), rng.NormFloat64()
		combo := make([]float64, n)
		for i := 0; i < n; i++ {
			combo[i] = alpha*x[i] + beta*y[i]
		}
		lhs := ix.Project(combo)
		px, py := ix.Project(x), ix.Project(y)
		for j := range lhs {
			want := alpha*px[j] + beta*py[j]
			if math.Abs(lhs[j]-want) > 1e-9*(1+math.Abs(want)) {
				t.Fatalf("trial %d: Project not linear at %d: %v vs %v", trial, j, lhs[j], want)
			}
		}
	}
}

// Property: projection never increases the Euclidean norm (Uₖ has
// orthonormal columns, so Uₖᵀ is a contraction).
func TestProjectContractionProperty(t *testing.T) {
	c := testCorpus(t, 3, 10, 0.05, 25, 303)
	ix, err := Build(corpus.TermDocMatrix(c, corpus.CountWeighting), 3, Options{Engine: EngineDense})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(304))
	n := ix.NumTerms()
	for trial := 0; trial < 200; trial++ {
		x := make([]float64, n)
		for i := 0; i < n; i++ {
			x[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(5)-2))
		}
		if mat.Norm(ix.Project(x)) > mat.Norm(x)*(1+1e-10) {
			t.Fatalf("trial %d: projection expanded the norm", trial)
		}
	}
}

// Property: skew is invariant under positive rescaling of document vectors
// (cosines do not change).
func TestSkewScaleInvarianceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(305))
	for trial := 0; trial < 50; trial++ {
		m, k := 2+rng.Intn(8), 1+rng.Intn(4)
		v := mat.NewDense(m, k)
		labels := make([]int, m)
		for i := 0; i < m; i++ {
			labels[i] = rng.Intn(3)
			for j := 0; j < k; j++ {
				v.Set(i, j, rng.NormFloat64())
			}
		}
		base := SkewFromGram(GramFromRows(v), labels)
		scaled := v.Clone()
		for i := 0; i < m; i++ {
			mat.ScaleVec(0.1+rng.Float64()*10, scaled.Row(i))
		}
		got := SkewFromGram(GramFromRows(scaled), labels)
		if math.Abs(got-base) > 1e-9 {
			t.Fatalf("trial %d: skew changed under rescaling: %v vs %v", trial, got, base)
		}
	}
}

// Property: search scores are invariant under positive query scaling and
// the self-match of an indexed document is maximal.
func TestSearchScalingProperty(t *testing.T) {
	c := testCorpus(t, 2, 8, 0.05, 15, 306)
	a := corpus.TermDocMatrix(c, corpus.CountWeighting)
	ix, err := Build(a, 2, Options{Engine: EngineDense})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(307))
	for trial := 0; trial < 30; trial++ {
		j := rng.Intn(15)
		q := a.Col(j)
		scaled := slices.Clone(q)
		mat.ScaleVec(0.5+rng.Float64()*5, scaled)
		r1 := ix.Search(q, 3)
		r2 := ix.Search(scaled, 3)
		for i := range r1 {
			if r1[i].Doc != r2[i].Doc || math.Abs(r1[i].Score-r2[i].Score) > 1e-10 {
				t.Fatalf("trial %d: scaling changed the ranking", trial)
			}
		}
		if r1[0].Doc != j {
			t.Fatalf("trial %d: self-match not top", trial)
		}
	}
}
