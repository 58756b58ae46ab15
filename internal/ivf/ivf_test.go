package ivf

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/mat"
	"repro/internal/par"
	"repro/internal/scan"
	"repro/internal/topk"
)

// clusteredVecs synthesizes the regime the paper proves LSI produces: m
// unit-ish vectors in dim dimensions concentrated around `topics` random
// directions with additive noise — the distribution the coarse quantizer
// is supposed to recover — stored as an index stores them: rounded to
// float32 (the matrix returned is their widened copy, as
// lsi.Index.DocVectors returns it) with the norms of the stored values.
func clusteredVecs(t testing.TB, m, dim, topics int, noise float64, seed int64) (*mat.Dense, []float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	dirs := mat.NewDense(topics, dim)
	for c := 0; c < topics; c++ {
		row := dirs.Row(c)
		for d := range row {
			row[d] = rng.NormFloat64()
		}
	}
	vecs := mat.NewDense(m, dim)
	for j := 0; j < m; j++ {
		dir := dirs.Row(j % topics)
		row := vecs.Row(j)
		for d := range row {
			row[d] = dir[d] + noise*rng.NormFloat64()
		}
	}
	stored := mat.Narrow(vecs)
	norms := make([]float64, m)
	for j := 0; j < m; j++ {
		norms[j] = mat.Norm(stored.Row(j))
	}
	return stored.Widen(), norms
}

// exhaustive is the ground-truth scan: every row scored with the same
// DotNorm32 kernel, selected through the same bounded heap.
func exhaustive(vecs *mat.Dense, norms, pq []float64, qn float64, topN int) []topk.Match {
	var h topk.Heap
	keep := topN
	if keep <= 0 || keep > vecs.Rows() {
		keep = vecs.Rows()
	}
	h.Reset(keep)
	for j := 0; j < vecs.Rows(); j++ {
		h.Offer(topk.Match{Doc: j, Score: mat.DotNorm32(pq, mat.Narrow(vecs).Row(j), qn, norms[j])})
	}
	return h.AppendSorted(nil)
}

func trainT(t *testing.T, vecs *mat.Dense, norms []float64, opts TrainOptions) *Index {
	t.Helper()
	x, err := Train(vecs, norms, opts)
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	return x
}

func sameIndex(t *testing.T, a, b *Index) {
	t.Helper()
	if a.dim != b.dim || a.nlist != b.nlist || a.seed != b.seed {
		t.Fatalf("index shape differs: (%d,%d,%d) vs (%d,%d,%d)", a.dim, a.nlist, a.seed, b.dim, b.nlist, b.seed)
	}
	ad, bd := a.centroids.RawData(), b.centroids.RawData()
	for i := range ad {
		if math.Float64bits(ad[i]) != math.Float64bits(bd[i]) {
			t.Fatalf("centroid element %d differs: %v vs %v", i, ad[i], bd[i])
		}
	}
	for i := range a.cellStart {
		if a.cellStart[i] != b.cellStart[i] {
			t.Fatalf("cellStart[%d] differs: %d vs %d", i, a.cellStart[i], b.cellStart[i])
		}
	}
	for i := range a.docs {
		if a.docs[i] != b.docs[i] {
			t.Fatalf("docs[%d] differs: %d vs %d", i, a.docs[i], b.docs[i])
		}
	}
}

func TestTrainDeterministicAcrossWorkers(t *testing.T) {
	vecs, norms := clusteredVecs(t, 500, 12, 8, 0.3, 1)
	opts := TrainOptions{NList: 16, Seed: 42}
	var ref *Index
	for _, workers := range []int{1, 2, 3, 8} {
		prev := par.SetMaxProcs(workers)
		x := trainT(t, vecs, norms, opts)
		par.SetMaxProcs(prev)
		if ref == nil {
			ref = x
			continue
		}
		sameIndex(t, ref, x)
	}
}

func TestTrainSameSeedSameIndex(t *testing.T) {
	vecs, norms := clusteredVecs(t, 300, 8, 6, 0.25, 2)
	a := trainT(t, vecs, norms, TrainOptions{NList: 8, Seed: 7})
	b := trainT(t, vecs, norms, TrainOptions{NList: 8, Seed: 7})
	sameIndex(t, a, b)
}

func TestPostingsArePermutation(t *testing.T) {
	vecs, norms := clusteredVecs(t, 257, 6, 5, 0.4, 3)
	x := trainT(t, vecs, norms, TrainOptions{NList: 10, Seed: 1})
	if x.NumDocs() != 257 {
		t.Fatalf("NumDocs = %d, want 257", x.NumDocs())
	}
	seen := make([]bool, 257)
	for c := 0; c < x.NList(); c++ {
		cell := x.docs[x.cellStart[c]:x.cellStart[c+1]]
		for i, d := range cell {
			if i > 0 && cell[i-1] >= d {
				t.Fatalf("cell %d not strictly ascending at %d", c, i)
			}
			if seen[d] {
				t.Fatalf("document %d in two cells", d)
			}
			seen[d] = true
		}
	}
	for j, ok := range seen {
		if !ok {
			t.Fatalf("document %d missing from postings", j)
		}
	}
}

func TestFullProbeMatchesExhaustive(t *testing.T) {
	vecs, norms := clusteredVecs(t, 400, 10, 7, 0.3, 4)
	x := trainT(t, vecs, norms, TrainOptions{NList: 12, Seed: 9})
	rng := rand.New(rand.NewSource(5))
	for q := 0; q < 20; q++ {
		pq := make([]float64, 10)
		for d := range pq {
			pq[d] = rng.NormFloat64()
		}
		qn := mat.Norm(pq)
		want := exhaustive(vecs, norms, pq, qn, 10)
		for _, nprobe := range []int{0, 12, 99} { // <=0 and >nlist both mean all cells
			got, stats := x.Search(vecs, norms, pq, qn, 10, nprobe)
			if stats.Cells != 12 || stats.Docs != 400 {
				t.Fatalf("nprobe=%d probed %+v, want all 12 cells / 400 docs", nprobe, stats)
			}
			if len(got) != len(want) {
				t.Fatalf("nprobe=%d: %d matches, want %d", nprobe, len(got), len(want))
			}
			for i := range got {
				if got[i].Doc != want[i].Doc || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
					t.Fatalf("query %d nprobe=%d rank %d: got %+v, want %+v (must be bitwise equal)",
						q, nprobe, i, got[i], want[i])
				}
			}
		}
	}
}

// TestAppendSearchIsProbeThenScore pins what the frozen AppendSearch is:
// AppendProbeDocs, then the shared float scorer over that list — same
// stats, same bits, at every probe budget; a budget of every cell (or
// more) is the exhaustive scan.
func TestAppendSearchIsProbeThenScore(t *testing.T) {
	vecs, norms := clusteredVecs(t, 500, 9, 6, 0.3, 21)
	x := trainT(t, vecs, norms, TrainOptions{NList: 10, Seed: 2})
	rng := rand.New(rand.NewSource(22))
	for q := 0; q < 10; q++ {
		pq := make([]float64, 9)
		for d := range pq {
			pq[d] = rng.NormFloat64()
		}
		qn := mat.Norm(pq)
		for _, nprobe := range []int{1, 3, 10, 11} {
			for _, topN := range []int{0, 7} {
				docs, probed := x.AppendProbeDocs(nil, pq, qn, nprobe)
				want := scan.Float{Vecs: mat.Narrow(vecs), Norms: norms, PQ: pq, QN: qn, Src: scan.List(docs)}.AppendTop(nil, topN)
				if nprobe >= x.NList() {
					want = exhaustive(vecs, norms, pq, qn, topN)
				}
				got, stats := x.AppendSearch(nil, vecs, norms, pq, qn, topN, nprobe)
				if stats != probed || stats.Docs != len(docs) {
					t.Fatalf("nprobe=%d: AppendSearch stats %+v, AppendProbeDocs %+v over %d docs", nprobe, stats, probed, len(docs))
				}
				if len(got) != len(want) {
					t.Fatalf("nprobe=%d topN=%d: %d matches, want %d", nprobe, topN, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("query %d nprobe=%d topN=%d rank %d: %+v, want %+v (bitwise)", q, nprobe, topN, i, got[i], want[i])
					}
				}
			}
		}
	}
}

func TestSearchDeterministicAcrossWorkers(t *testing.T) {
	vecs, norms := clusteredVecs(t, 600, 8, 6, 0.3, 6)
	x := trainT(t, vecs, norms, TrainOptions{NList: 12, Seed: 3})
	pq := make([]float64, 8)
	rng := rand.New(rand.NewSource(7))
	for d := range pq {
		pq[d] = rng.NormFloat64()
	}
	qn := mat.Norm(pq)
	var ref []topk.Match
	for _, workers := range []int{1, 2, 7} {
		prev := par.SetMaxProcs(workers)
		got, _ := x.Search(vecs, norms, pq, qn, 15, 4)
		par.SetMaxProcs(prev)
		if ref == nil {
			ref = got
			continue
		}
		if len(got) != len(ref) {
			t.Fatalf("workers=%d: %d matches, want %d", workers, len(got), len(ref))
		}
		for i := range got {
			if got[i] != ref[i] {
				t.Fatalf("workers=%d rank %d: %+v vs %+v", workers, i, got[i], ref[i])
			}
		}
	}
}

func TestRecallOnClusteredCorpus(t *testing.T) {
	vecs, norms := clusteredVecs(t, 2000, 16, 10, 0.2, 8)
	x := trainT(t, vecs, norms, TrainOptions{NList: 20, Seed: 11})
	rng := rand.New(rand.NewSource(9))
	hits, want := 0, 0
	for q := 0; q < 30; q++ {
		// Query near a topic direction, like a projected query would be.
		pq := append([]float64(nil), vecs.Row(rng.Intn(2000))...)
		for d := range pq {
			pq[d] += 0.05 * rng.NormFloat64()
		}
		qn := mat.Norm(pq)
		truth := exhaustive(vecs, norms, pq, qn, 10)
		got, stats := x.Search(vecs, norms, pq, qn, 10, 4)
		if stats.Docs >= 2000 {
			t.Fatalf("nprobe=4 scanned the whole corpus (%d docs)", stats.Docs)
		}
		in := make(map[int]bool, len(got))
		for _, m := range got {
			in[m.Doc] = true
		}
		for _, m := range truth {
			want++
			if in[m.Doc] {
				hits++
			}
		}
	}
	if recall := float64(hits) / float64(want); recall < 0.9 {
		t.Fatalf("recall@10 at nprobe=4/20 = %.3f, want >= 0.9", recall)
	}
}

func TestTrainValidation(t *testing.T) {
	vecs, norms := clusteredVecs(t, 10, 4, 2, 0.3, 10)
	if _, err := Train(mat.NewDense(0, 4), nil, TrainOptions{NList: 2}); err == nil {
		t.Fatal("Train on empty matrix: want error")
	}
	if _, err := Train(vecs, norms[:5], TrainOptions{NList: 2}); err == nil {
		t.Fatal("Train with short norms: want error")
	}
	if _, err := Train(vecs, norms, TrainOptions{NList: 0}); err == nil {
		t.Fatal("Train with nlist=0: want error")
	}
	// nlist beyond m clamps rather than failing.
	x := trainT(t, vecs, norms, TrainOptions{NList: 64, Seed: 1})
	if x.NList() != 10 {
		t.Fatalf("NList = %d, want clamp to 10", x.NList())
	}
	sizes := 0
	for c := 0; c < x.NList(); c++ {
		sizes += x.cellStart[c+1] - x.cellStart[c]
	}
	if sizes != 10 {
		t.Fatalf("cell sizes sum to %d, want 10", sizes)
	}
}

func TestZeroQueryAndZeroDocs(t *testing.T) {
	vecs := mat.NewDense(6, 4)
	for j := 0; j < 3; j++ { // three zero rows, three unit rows
		vecs.Set(j+3, j%4, 1)
	}
	norms := make([]float64, 6)
	for j := range norms {
		norms[j] = mat.Norm(vecs.Row(j))
	}
	x := trainT(t, vecs, norms, TrainOptions{NList: 2, Seed: 1})
	// Zero query: every score is 0, so top-k is the lowest doc ids.
	got, _ := x.Search(vecs, norms, make([]float64, 4), 0, 3, 0)
	for i, m := range got {
		if m.Doc != i || m.Score != 0 {
			t.Fatalf("zero query rank %d: %+v, want doc %d score 0", i, m, i)
		}
	}
}
