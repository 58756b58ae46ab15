package lsi

import (
	"math/rand"
	"testing"

	"repro/internal/corpus"
	"repro/internal/mat"
	"repro/internal/par"
	"repro/internal/svd"
)

// withProcs pins the par worker limit so fold-in fan-out takes its
// goroutine path even on single-CPU machines.
func withProcs(t *testing.T, n int) {
	t.Helper()
	old := par.SetMaxProcs(n)
	t.Cleanup(func() { par.SetMaxProcs(old) })
}

// batchIndex builds an index plus a batch of document-vector queries
// drawn from the same matrix.
func batchIndex(t *testing.T) (*Index, [][]float64) {
	t.Helper()
	c := testCorpus(t, 4, 12, 0.05, 60, 911)
	a := corpus.TermDocMatrix(c, corpus.CountWeighting)
	ix, err := Build(a, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	queries := make([][]float64, 24)
	for i := range queries {
		queries[i] = a.Col(i % a.Cols())
	}
	return ix, queries
}

func TestSearchProjectedParallelScoringMatchesSerial(t *testing.T) {
	// Scoring fans out only once a chunk carries worthwhile work, so a
	// corpus-built index is too small; construct a synthetic index with
	// enough documents to cross par.GrainFor(3*k), then check the ranking
	// is identical across worker counts (per-document scores are
	// bitwise-stable).
	const n, k, m = 6, 2, 200000
	rng := rand.New(rand.NewSource(913))
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
	if grain := par.GrainFor(3 * ix.K()); ix.NumDocs() <= grain {
		t.Fatalf("synthetic index too small (%d docs) to cross the scoring grain %d", ix.NumDocs(), grain)
	}
	q := make([]float64, n)
	for i := range q {
		q[i] = rng.NormFloat64()
	}
	old := par.SetMaxProcs(1)
	defer par.SetMaxProcs(old)
	want := ix.Search(q, 0)
	for _, procs := range []int{2, 4, 7} {
		par.SetMaxProcs(procs)
		got := ix.Search(q, 0)
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("procs=%d rank %d: %+v != serial %+v", procs, j, got[j], want[j])
			}
		}
	}
}

func TestAppendDocumentsParallelMatchesSequentialFold(t *testing.T) {
	withProcs(t, 4)
	ix, queries := batchIndex(t)
	ref, _ := batchIndex(t)
	start := ix.NumDocs()
	ext := foldIn(t, ix, queries...)
	for i, q := range queries {
		want := foldIn(t, ref, q).DocVector(start)
		got := ext.DocVector(start + i)
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("doc %d dim %d: batch fold %v != serial fold %v", i, j, got[j], want[j])
			}
		}
	}
}
