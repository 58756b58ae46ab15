package lsi

import (
	"math/rand"
	"testing"

	"repro/internal/corpus"
	"repro/internal/mat"
	"repro/internal/par"
	"repro/internal/svd"
)

// sparsify extracts the nonzero (terms, weights) of a dense vector in
// ascending term order — the normal form the sparse hot path consumes.
func sparsify(q []float64) ([]int, []float64) {
	var terms []int
	var weights []float64
	for t, w := range q {
		if w != 0 {
			terms = append(terms, t)
			weights = append(weights, w)
		}
	}
	return terms, weights
}

func TestProjectSparseMatchesProject(t *testing.T) {
	c := testCorpus(t, 3, 10, 0.05, 30, 811)
	a := corpus.TermDocMatrix(c, corpus.CountWeighting)
	ix, err := Build(a, 3, Options{Engine: EngineDense})
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 5; j++ {
		q := a.Col(j)
		terms, weights := sparsify(q)
		want := ix.Project(q)
		got := ix.ProjectSparse(terms, weights)
		for d := range want {
			if got[d] != want[d] {
				t.Fatalf("doc %d dim %d: sparse %v != dense %v (must be bitwise equal)", j, d, got[d], want[d])
			}
		}
	}
}

func TestSearchSparseMatchesSearch(t *testing.T) {
	c := testCorpus(t, 3, 10, 0.05, 40, 813)
	a := corpus.TermDocMatrix(c, corpus.CountWeighting)
	ix, err := Build(a, 3, Options{Engine: EngineDense})
	if err != nil {
		t.Fatal(err)
	}
	for _, topN := range []int{0, 3, 10, 1000} {
		for j := 0; j < 5; j++ {
			q := a.Col(j)
			terms, weights := sparsify(q)
			want := ix.Search(q, topN)
			got := ix.SearchSparse(terms, weights, topN)
			if len(got) != len(want) {
				t.Fatalf("topN=%d doc %d: %d matches, want %d", topN, j, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("topN=%d doc %d rank %d: sparse %+v != dense %+v", topN, j, i, got[i], want[i])
				}
			}
		}
	}
}

func TestAppendSearchReusesBuffer(t *testing.T) {
	c := testCorpus(t, 3, 10, 0.05, 40, 815)
	a := corpus.TermDocMatrix(c, corpus.CountWeighting)
	ix, err := Build(a, 3, Options{Engine: EngineDense})
	if err != nil {
		t.Fatal(err)
	}
	q := a.Col(2)
	want := ix.Search(q, 5)
	buf := make([]Match, 0, 5)
	got := ix.AppendSearch(buf, q, 5)
	if &got[0] != &buf[:1][0] {
		t.Fatal("AppendSearch did not reuse the caller's buffer")
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rank %d: %+v != %+v", i, got[i], want[i])
		}
	}
	// A second reuse of the same buffer yields the same results.
	got = ix.AppendSearch(got[:0], q, 5)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("reuse rank %d: %+v != %+v", i, got[i], want[i])
		}
	}
}

// largeSyntheticIndex builds an index big enough that bounded top-k
// scoring crosses the parallel grain (m must exceed GrainFor(2k+1)).
func largeSyntheticIndex(t *testing.T) (*Index, []float64) {
	t.Helper()
	const n, k, m = 6, 2, 200000
	rng := rand.New(rand.NewSource(917))
	u := mat.NewDense(n, k)
	v := mat.NewDense(m, k)
	for _, d := range [][]float64{u.RawData(), v.RawData()} {
		for i := range d {
			d[i] = rng.NormFloat64()
		}
	}
	ix, err := NewIndexFromSVD(&svd.Result{U: u, S: []float64{2, 1}, V: v}, n)
	if err != nil {
		t.Fatal(err)
	}
	if grain := par.GrainFor(2*ix.K() + 1); ix.NumDocs() <= grain {
		t.Fatalf("synthetic index too small (%d docs) for the scoring grain %d", ix.NumDocs(), grain)
	}
	q := make([]float64, n)
	for i := range q {
		q[i] = rng.NormFloat64()
	}
	return ix, q
}

func TestSearchTopKParallelMergeMatchesSerial(t *testing.T) {
	// The bounded-selection path merges per-chunk partial heaps; the
	// result must be identical to the serial scan for every worker count
	// (and hence every chunk layout).
	ix, q := largeSyntheticIndex(t)
	old := par.SetMaxProcs(1)
	defer par.SetMaxProcs(old)
	for _, topN := range []int{1, 10, 100} {
		want := ix.Search(q, topN)
		if len(want) != topN {
			t.Fatalf("serial topN=%d returned %d matches", topN, len(want))
		}
		for _, procs := range []int{2, 4, 7} {
			par.SetMaxProcs(procs)
			got := ix.Search(q, topN)
			par.SetMaxProcs(1)
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("procs=%d topN=%d rank %d: %+v != serial %+v", procs, topN, j, got[j], want[j])
				}
			}
		}
	}
}

func TestSearchMatchesBruteForceCosine(t *testing.T) {
	// Precomputed norms + the fused kernel must reproduce the reference
	// per-pair cosine of the stored (widened) vectors bitwise: below one
	// four-element block, DotNorm32 sums its products in order, as Dot does.
	c := testCorpus(t, 3, 10, 0.05, 40, 819)
	a := corpus.TermDocMatrix(c, corpus.CountWeighting)
	ix, err := Build(a, 3, Options{Engine: EngineDense})
	if err != nil {
		t.Fatal(err)
	}
	q := a.Col(7)
	pq := ix.Project(q)
	res := ix.Search(q, 0)
	if len(res) != ix.NumDocs() {
		t.Fatalf("%d matches, want %d", len(res), ix.NumDocs())
	}
	for _, m := range res {
		want := mat.Cosine(pq, ix.DocVector(m.Doc))
		if m.Score != want {
			t.Fatalf("doc %d: score %v != reference cosine %v (must be bitwise equal)", m.Doc, m.Score, want)
		}
	}
}

func TestNormsTrackAppends(t *testing.T) {
	ix, queries := batchIndex(t)
	if len(ix.norms) != ix.NumDocs() {
		t.Fatalf("%d norms for %d docs", len(ix.norms), ix.NumDocs())
	}
	id := ix.NumDocs()
	ix = foldIn(t, ix, queries[0])
	if len(ix.norms) != ix.NumDocs() {
		t.Fatalf("after append: %d norms for %d docs", len(ix.norms), ix.NumDocs())
	}
	if want := mat.Norm(ix.DocVector(id)); ix.norms[id] != want {
		t.Fatalf("appended norm %v, want %v", ix.norms[id], want)
	}
	ix = foldIn(t, ix, queries[1:3]...)
	for j := 0; j < ix.NumDocs(); j++ {
		if want := mat.Norm(ix.DocVector(j)); ix.norms[j] != want {
			t.Fatalf("doc %d norm %v, want %v", j, ix.norms[j], want)
		}
	}
}
