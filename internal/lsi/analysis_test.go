package lsi

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/corpus"
	"repro/internal/mat"
	"repro/internal/sparse"
)

func TestGramFromRowsAndColumnsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	// Columns of a sparse matrix = rows of its dense transpose.
	coo := sparse.NewCOO(6, 4)
	d := mat.NewDense(6, 4)
	for i := 0; i < 6; i++ {
		for j := 0; j < 4; j++ {
			if rng.Float64() < 0.5 {
				v := rng.NormFloat64()
				coo.Add(i, j, v)
				d.Set(i, j, v)
			}
		}
	}
	a := coo.ToCSR()
	g1 := GramFromColumns(a)
	g2 := GramFromRows(d.T())
	if !mat.EqualApprox(g1, g2, 1e-10) {
		t.Fatal("Gram matrices disagree")
	}
	// Symmetry and PSD diagonal.
	for i := 0; i < 4; i++ {
		if g1.At(i, i) < 0 {
			t.Fatal("negative Gram diagonal")
		}
		for j := 0; j < 4; j++ {
			if math.Abs(g1.At(i, j)-g1.At(j, i)) > 1e-12 {
				t.Fatal("Gram not symmetric")
			}
		}
	}
}

func TestPairAnglesKnownGeometry(t *testing.T) {
	// Three documents: two parallel (topic 0), one orthogonal (topic 1).
	v := mat.FromRows([][]float64{
		{1, 0},
		{2, 0},
		{0, 3},
	})
	set := PairAngles(GramFromRows(v), []int{0, 0, 1})
	if len(set.Intra) != 1 || len(set.Inter) != 2 {
		t.Fatalf("pair counts: intra %d inter %d", len(set.Intra), len(set.Inter))
	}
	if set.Intra[0] > 1e-12 {
		t.Fatalf("parallel pair angle %v", set.Intra[0])
	}
	for _, a := range set.Inter {
		if math.Abs(a-math.Pi/2) > 1e-12 {
			t.Fatalf("orthogonal pair angle %v", a)
		}
	}
	intra, inter := set.Summaries()
	if intra.N != 1 || inter.N != 2 {
		t.Fatal("summary counts wrong")
	}
}

func TestPairAnglesZeroVector(t *testing.T) {
	v := mat.FromRows([][]float64{{0, 0}, {1, 0}})
	set := PairAngles(GramFromRows(v), []int{0, 0})
	if math.Abs(set.Intra[0]-math.Pi/2) > 1e-12 {
		t.Fatalf("zero-vector pair angle %v, want π/2", set.Intra[0])
	}
}

func TestPairAnglesPanics(t *testing.T) {
	for i, f := range []func(){
		func() { PairAngles(mat.NewDense(2, 3), []int{0, 0}) },
		func() { PairAngles(mat.NewDense(2, 2), []int{0}) },
		func() { SkewFromGram(mat.NewDense(2, 3), []int{0, 0}) },
		func() { SkewFromGram(mat.NewDense(2, 2), []int{0}) },
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

func TestSkewKnownGeometry(t *testing.T) {
	// Perfect separation: skew 0.
	v := mat.FromRows([][]float64{
		{1, 0}, {3, 0}, // topic 0, parallel
		{0, 1}, {0, 2}, // topic 1, parallel, orthogonal to topic 0
	})
	labels := []int{0, 0, 1, 1}
	if got := SkewFromGram(GramFromRows(v), labels); got > 1e-12 {
		t.Fatalf("perfect geometry skew = %v", got)
	}
	// An intertopic pair at 45° forces δ ≥ cos(45°) ≈ 0.707.
	v2 := mat.FromRows([][]float64{
		{1, 0},
		{1, 1},
	})
	got := SkewFromGram(GramFromRows(v2), []int{0, 1})
	if math.Abs(got-math.Sqrt2/2) > 1e-12 {
		t.Fatalf("45° intertopic skew = %v, want %v", got, math.Sqrt2/2)
	}
	// An intratopic pair at 60° forces δ ≥ 1−cos(60°) = 0.5.
	v3 := mat.FromRows([][]float64{
		{1, 0},
		{0.5, math.Sqrt(3) / 2},
	})
	got = SkewFromGram(GramFromRows(v3), []int{0, 0})
	if math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("60° intratopic skew = %v, want 0.5", got)
	}
}

func TestSkewZeroVectorIntratopic(t *testing.T) {
	v := mat.FromRows([][]float64{{0, 0}, {1, 0}})
	if got := SkewFromGram(GramFromRows(v), []int{0, 0}); got != 1 {
		t.Fatalf("zero-vector intratopic skew = %v, want 1", got)
	}
	// Intertopic zero-vector pairs are ignored.
	if got := SkewFromGram(GramFromRows(v), []int{0, 1}); got != 0 {
		t.Fatalf("zero-vector intertopic skew = %v, want 0", got)
	}
}

func TestLSISeparatesTopicsTheorem2Regime(t *testing.T) {
	// A 0-separable pure corpus: rank-k LSI must be (near-)0-skewed
	// (Theorem 2), dramatically better than the original space.
	model, err := corpus.PureSeparableModel(corpus.SeparableConfig{
		NumTopics: 4, TermsPerTopic: 25, Epsilon: 0, MinLen: 60, MaxLen: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := corpus.Generate(model, 80, rand.New(rand.NewSource(82)))
	if err != nil {
		t.Fatal(err)
	}
	a := corpus.TermDocMatrix(c, corpus.CountWeighting)
	labels := c.Labels()
	ix, err := Build(a, 4, Options{Engine: EngineDense})
	if err != nil {
		t.Fatal(err)
	}
	lsiSkew := ix.Skew(labels)
	origSkew := OriginalSkew(a, labels)
	if lsiSkew > 0.15 {
		t.Fatalf("LSI skew %v on 0-separable corpus (Theorem 2 predicts ≈0)", lsiSkew)
	}
	if lsiSkew >= origSkew {
		t.Fatalf("LSI skew %v not better than original-space skew %v", lsiSkew, origSkew)
	}
	// Intratopic angles should collapse; intertopic stay near π/2.
	set := ix.Angles(labels)
	intra, inter := set.Summaries()
	if intra.Mean > 0.2 {
		t.Fatalf("intratopic mean angle %v in LSI space", intra.Mean)
	}
	if inter.Mean < math.Pi/2-0.3 {
		t.Fatalf("intertopic mean angle %v in LSI space", inter.Mean)
	}
	origSet := OriginalAngles(a, labels)
	origIntra, _ := origSet.Summaries()
	if intra.Mean >= origIntra.Mean {
		t.Fatalf("LSI did not reduce intratopic angles: %v vs %v", intra.Mean, origIntra.Mean)
	}
}

func TestAnglesLabelsMismatchPanics(t *testing.T) {
	c := testCorpus(t, 2, 5, 0, 10, 83)
	ix, err := Build(corpus.TermDocMatrix(c, corpus.CountWeighting), 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ix.Angles([]int{0})
}
