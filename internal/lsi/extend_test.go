package lsi

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/corpus"
	"repro/internal/mat"
)

// sparseDoc converts a dense term-space vector to the sorted sparse form
// ExtendedSparse consumes.
func sparseDoc(d []float64) (terms []int, weights []float64) {
	for t, v := range d {
		if v != 0 {
			terms = append(terms, t)
			weights = append(weights, v)
		}
	}
	return terms, weights
}

func TestExtendedSparseMatchesAppendDocuments(t *testing.T) {
	c := testCorpus(t, 3, 10, 0.05, 30, 163)
	a := corpus.TermDocMatrix(c, corpus.CountWeighting)
	ix, err := Build(a, 3, Options{Engine: EngineDense})
	if err != nil {
		t.Fatal(err)
	}
	// Fold columns 0..4 back in.
	var dense [][]float64
	var terms [][]int
	var weights [][]float64
	for j := 0; j < 5; j++ {
		col := a.Col(j)
		dense = append(dense, col)
		ts, ws := sparseDoc(col)
		terms = append(terms, ts)
		weights = append(weights, ws)
	}

	ext, err := ix.ExtendedSparse(terms, weights)
	if err != nil {
		t.Fatal(err)
	}
	if ix.NumDocs() != 30 {
		t.Fatalf("receiver mutated: NumDocs %d, want 30", ix.NumDocs())
	}
	if ext.NumDocs() != 35 {
		t.Fatalf("extended NumDocs %d, want 35", ext.NumDocs())
	}

	// The stored rows are the dense fold-in Uₖᵀd rounded once to float32;
	// the indexed rows are the receiver's.
	for j := 0; j < 35; j++ {
		want := ix.DocVector(j % 30)
		if j >= 30 {
			want = ix.Project(dense[j-30])
			for i, v := range want {
				want[i] = float64(float32(v))
			}
		}
		got := ext.DocVector(j)
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("doc %d dim %d: extended %v, dense fold-in %v (want bitwise equality)", j, i, got[i], want[i])
			}
		}
		if got, want := ext.Norms()[j], mat.Norm(ext.DocVector(j)); got != want {
			t.Fatalf("doc %d norm %v, want %v", j, got, want)
		}
	}
}

func TestExtendedSparseValidates(t *testing.T) {
	c := testCorpus(t, 2, 8, 0, 12, 164)
	a := corpus.TermDocMatrix(c, corpus.CountWeighting)
	ix, err := Build(a, 2, Options{Engine: EngineDense})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.ExtendedSparse([][]int{{0}}, [][]float64{{1, 2}}); err == nil {
		t.Fatal("length mismatch not rejected")
	}
	if _, err := ix.ExtendedSparse([][]int{{ix.NumTerms()}}, [][]float64{{1}}); err == nil {
		t.Fatal("out-of-range term not rejected")
	}
	if _, err := ix.ExtendedSparse([][]int{{-1}}, [][]float64{{1}}); err == nil {
		t.Fatal("negative term not rejected")
	}
	if ix.NumDocs() != 12 {
		t.Fatalf("failed extension mutated the index: NumDocs %d", ix.NumDocs())
	}
}

func TestEmptyLikeSeedsFreshSegment(t *testing.T) {
	c := testCorpus(t, 3, 10, 0.05, 30, 165)
	a := corpus.TermDocMatrix(c, corpus.CountWeighting)
	ix, err := Build(a, 3, Options{Engine: EngineDense})
	if err != nil {
		t.Fatal(err)
	}
	empty := ix.EmptyLike()
	if empty.NumDocs() != 0 {
		t.Fatalf("EmptyLike NumDocs %d, want 0", empty.NumDocs())
	}
	if empty.K() != ix.K() || empty.NumTerms() != ix.NumTerms() {
		t.Fatalf("EmptyLike shape (%d,%d), want (%d,%d)", empty.K(), empty.NumTerms(), ix.K(), ix.NumTerms())
	}
	// Documents extended into the empty segment get the same representation
	// the parent would give them.
	rng := rand.New(rand.NewSource(7))
	var terms []int
	for t := 0; t < ix.NumTerms(); t++ {
		if rng.Intn(3) == 0 {
			terms = append(terms, t)
		}
	}
	sort.Ints(terms)
	weights := make([]float64, len(terms))
	for i := range weights {
		weights[i] = rng.Float64() + 0.5
	}
	seg, err := empty.ExtendedSparse([][]int{terms}, [][]float64{weights})
	if err != nil {
		t.Fatal(err)
	}
	want := ix.ProjectSparse(terms, weights)
	got := seg.DocVector(0)
	for i := range want {
		if float64(float32(want[i])) != got[i] { // stored: the projection rounded once
			t.Fatalf("dim %d: segment row %v, parent projection %v", i, got[i], want[i])
		}
	}
}

// Concat joins indexes that share a basis row for row, with no
// decomposition: the result is bitwise one ExtendedSparse over all their
// documents, and indexes over different bases are refused.
func TestConcatMatchesOneExtension(t *testing.T) {
	c := testCorpus(t, 3, 10, 0.05, 30, 166)
	a := corpus.TermDocMatrix(c, corpus.CountWeighting)
	ix, err := Build(a, 3, Options{Engine: EngineDense})
	if err != nil {
		t.Fatal(err)
	}
	var terms [][]int
	var weights [][]float64
	for j := 0; j < 12; j++ {
		tm, w := sparseDoc(a.Col(j))
		terms, weights = append(terms, tm), append(weights, w)
	}
	whole, err := ix.EmptyLike().ExtendedSparse(terms, weights)
	if err != nil {
		t.Fatal(err)
	}
	var parts []*Index
	for _, cut := range [][2]int{{0, 5}, {5, 5}, {5, 12}} {
		p, err := ix.EmptyLike().ExtendedSparse(terms[cut[0]:cut[1]], weights[cut[0]:cut[1]])
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, p)
	}
	got, err := Concat(parts...)
	if err != nil {
		t.Fatal(err)
	}
	if got.Basis() != ix.Basis() || got.NumDocs() != whole.NumDocs() {
		t.Fatalf("concat holds %d documents over its own basis", got.NumDocs())
	}
	for j := 0; j < whole.NumDocs(); j++ {
		if got.Norms()[j] != whole.Norms()[j] || mat.Dist(got.DocVector(j), whole.DocVector(j)) != 0 {
			t.Fatalf("document %d differs from the one-pass extension", j)
		}
	}
	other, err := Build(a, 3, Options{Engine: EngineDense})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Concat(parts[0], other); err == nil {
		t.Fatal("concatenating indexes over different bases did not fail")
	}
	if _, err := Concat(); err == nil {
		t.Fatal("concatenating nothing did not fail")
	}
}
