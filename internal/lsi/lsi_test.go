package lsi

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"repro/internal/corpus"
	"repro/internal/mat"
	"repro/internal/sparse"
	"repro/internal/svd"
)

func testCorpus(t *testing.T, topics, termsPer int, eps float64, m int, seed int64) *corpus.Corpus {
	t.Helper()
	model, err := corpus.PureSeparableModel(corpus.SeparableConfig{
		NumTopics: topics, TermsPerTopic: termsPer, Epsilon: eps, MinLen: 40, MaxLen: 60,
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := corpus.Generate(model, m, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestBuildBasics(t *testing.T) {
	c := testCorpus(t, 3, 10, 0.05, 30, 71)
	ix, err := BuildFromCorpus(c, 3, corpus.CountWeighting, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ix.K() != 3 || ix.NumDocs() != 30 || ix.NumTerms() != 30 {
		t.Fatalf("index dims: k=%d docs=%d terms=%d", ix.K(), ix.NumDocs(), ix.NumTerms())
	}
	s := ix.SingularValues()
	if len(s) != 3 || s[0] < s[1] || s[1] < s[2] || s[2] <= 0 {
		t.Fatalf("singular values %v", s)
	}
	if !ix.Basis().IsOrthonormalCols(1e-8) {
		t.Fatal("basis not orthonormal")
	}
}

func TestBuildErrors(t *testing.T) {
	a := sparse.NewCOO(3, 3)
	a.Add(0, 0, 1)
	csr := a.ToCSR()
	if _, err := Build(csr, 0, Options{}); err == nil {
		t.Error("k=0 should error")
	}
	if _, err := Build(sparse.NewCOO(0, 0).ToCSR(), 1, Options{}); err == nil {
		t.Error("empty matrix should error")
	}
	if _, err := Build(csr, 1, Options{Engine: Engine(99)}); err == nil {
		t.Error("unknown engine should error")
	}
	// k beyond rank clamps.
	ix, err := Build(csr, 10, Options{Engine: EngineDense})
	if err != nil {
		t.Fatal(err)
	}
	if ix.K() > 3 {
		t.Fatalf("k should clamp to 3, got %d", ix.K())
	}
}

func TestEnginesAgree(t *testing.T) {
	c := testCorpus(t, 3, 12, 0.05, 40, 72)
	a := corpus.TermDocMatrix(c, corpus.CountWeighting)
	var sigmas [][]float64
	for _, e := range []Engine{EngineDense, EngineRandomized, EngineAuto} {
		ix, err := Build(a, 3, Options{Engine: e})
		if err != nil {
			t.Fatalf("%v: %v", e, err)
		}
		sigmas = append(sigmas, ix.SingularValues())
	}
	for i := 1; i < len(sigmas); i++ {
		for j := range sigmas[0] {
			if math.Abs(sigmas[i][j]-sigmas[0][j]) > 1e-6*(1+sigmas[0][0]) {
				t.Fatalf("engine %d sigma[%d] = %v, dense = %v", i, j, sigmas[i][j], sigmas[0][j])
			}
		}
	}
}

func TestDocVectorsMatchProjection(t *testing.T) {
	// Stored document vectors must equal Uₖᵀ·(column j of A) up to the
	// float32 rounding of storage (2⁻²⁴ relative): folding in an indexed
	// document reproduces its stored representation.
	c := testCorpus(t, 2, 8, 0.05, 20, 73)
	a := corpus.TermDocMatrix(c, corpus.CountWeighting)
	ix, err := Build(a, 2, Options{Engine: EngineDense})
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < ix.NumDocs(); j++ {
		proj := ix.Project(a.Col(j))
		stored := ix.DocVector(j)
		if mat.Dist(proj, stored) > 1e-7*(1+mat.Norm(stored)) {
			t.Fatalf("doc %d: projection %v != stored %v", j, proj, stored)
		}
	}
}

func TestProjectPanicsOnWrongLength(t *testing.T) {
	c := testCorpus(t, 2, 5, 0, 10, 74)
	ix, err := BuildFromCorpus(c, 2, corpus.CountWeighting, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ix.Project([]float64{1, 2})
}

func TestSearchRanksOwnTopicFirst(t *testing.T) {
	c := testCorpus(t, 3, 10, 0.05, 45, 75)
	a := corpus.TermDocMatrix(c, corpus.CountWeighting)
	ix, err := Build(a, 3, Options{Engine: EngineDense})
	if err != nil {
		t.Fatal(err)
	}
	labels := c.Labels()
	// Query with each document's own vector: the top match must be itself
	// (score ≈ 1) and the top-5 should share its topic.
	for j := 0; j < 10; j++ {
		res := ix.Search(a.Col(j), 5)
		if res[0].Doc != j {
			t.Fatalf("doc %d: top match is %d (score %v)", j, res[0].Doc, res[0].Score)
		}
		if res[0].Score < 0.999 {
			t.Fatalf("doc %d: self score %v", j, res[0].Score)
		}
		for _, m := range res {
			if labels[m.Doc] != labels[j] {
				t.Fatalf("doc %d (topic %d): retrieved doc %d of topic %d in top-5",
					j, labels[j], m.Doc, labels[m.Doc])
			}
		}
	}
}

func TestSearchTopNClamp(t *testing.T) {
	c := testCorpus(t, 2, 5, 0, 8, 76)
	a := corpus.TermDocMatrix(c, corpus.CountWeighting)
	ix, err := Build(a, 2, Options{Engine: EngineDense})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(ix.Search(a.Col(0), 0)); got != 8 {
		t.Fatalf("topN=0 returned %d", got)
	}
	if got := len(ix.Search(a.Col(0), 100)); got != 8 {
		t.Fatalf("topN=100 returned %d", got)
	}
	if got := len(ix.Search(a.Col(0), 3)); got != 3 {
		t.Fatalf("topN=3 returned %d", got)
	}
}

func TestApproxMatrixIsEckartYoung(t *testing.T) {
	c := testCorpus(t, 2, 6, 0.05, 15, 77)
	a := corpus.TermDocMatrix(c, corpus.CountWeighting)
	ix, err := Build(a, 2, Options{Engine: EngineDense})
	if err != nil {
		t.Fatal(err)
	}
	ak := ix.ApproxMatrix()
	ad := a.ToDense()
	full, err := svd.Decompose(ad)
	if err != nil {
		t.Fatal(err)
	}
	var tail float64
	for _, s := range full.S[2:] {
		tail += s * s
	}
	errF := mat.SubMat(ad, ak).Frob()
	if math.Abs(errF*errF-tail) > 1e-6*(1+tail) {
		t.Fatalf("‖A−A₂‖² = %v, want tail %v", errF*errF, tail)
	}
}

func TestBuildDeterministicSeed(t *testing.T) {
	c := testCorpus(t, 3, 10, 0.05, 30, 78)
	a := corpus.TermDocMatrix(c, corpus.CountWeighting)
	ix1, err := Build(a, 3, Options{Engine: EngineRandomized, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	ix2, err := Build(a, 3, Options{Engine: EngineRandomized, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !mat.EqualApprox(ix1.DocVectors(), ix2.DocVectors(), 0) {
		t.Fatal("same seed produced different indexes")
	}
}

func TestEngineString(t *testing.T) {
	for e, want := range map[Engine]string{
		EngineAuto: "auto", EngineDense: "dense",
		EngineRandomized: "randomized", Engine(9): "Engine(9)",
	} {
		if e.String() != want {
			t.Fatalf("Engine.String() = %q, want %q", e.String(), want)
		}
	}
}

// EngineAuto is one comparison: the dense SVD below autoDenseBelow on the
// short side, the randomized one from there up — bit for bit the engine
// it names. At the ledger's freshly sealed shape (128 × 1,600, k = 64:
// what most compactions decompose) the two engines rank alike.
func TestEngineAutoRule(t *testing.T) {
	save := func(a *sparse.CSR, k int, e Engine) []byte {
		ix, err := Build(a, k, Options{Engine: e, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := ix.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	short := func(topics, termsPer int) *sparse.CSR { // topics·termsPer terms × 100 documents
		return corpus.TermDocMatrix(testCorpus(t, topics, termsPer, 0.05, 100, 79), corpus.CountWeighting)
	}
	for _, a := range []*sparse.CSR{
		ledgerMatrix(t, 8), ledgerMatrix(t, autoDenseBelow-1), ledgerMatrix(t, autoDenseBelow), ledgerMatrix(t, 128),
		short(3, 10), short(4, 8), // the short side decides, whichever side it is
	} {
		n, m := a.Dims()
		want := EngineRandomized
		if min(n, m) < autoDenseBelow {
			want = EngineDense
		}
		if !bytes.Equal(save(a, 64, EngineAuto), save(a, 64, want)) {
			t.Fatalf("%d × %d: EngineAuto differs from %v", n, m, want)
		}
	}

	a := ledgerMatrix(t, 128)
	dense, err := Build(a, 64, Options{Engine: EngineDense})
	if err != nil {
		t.Fatal(err)
	}
	rnd, err := Build(a, 64, Options{Engine: EngineRandomized, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// 64 topics dealt round-robin over 128 documents: a document's own
	// topic is itself and one mate, and everything after them is
	// off-topic noise near cosine 0.02 whose order is not a property of
	// the corpus. The two on-topic places must match; the rest must score
	// alike.
	for j := 0; j < 128; j++ {
		q := a.Col(j)
		d, r := dense.Search(q, 10), rnd.Search(q, 10)
		for i := range d {
			if i < 2 && d[i].Doc != r[i].Doc {
				t.Errorf("doc %d rank %d: dense %+v, randomized %+v", j, i, d[i], r[i])
			}
			if math.Abs(d[i].Score-r[i].Score) > 1e-3 {
				t.Errorf("doc %d rank %d: dense score %v, randomized %v", j, i, d[i].Score, r[i].Score)
			}
		}
	}
}
