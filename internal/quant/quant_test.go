package quant

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/mat"
	"repro/internal/par"
	"repro/internal/scan"
	"repro/internal/topk"
)

// clusteredVecs samples m unit-scale vectors around `topics` random
// directions — the regime the paper proves LSI produces and the one the
// fidelity gate measures on — stored as an index stores them: rounded to
// float32 (returned widened, as lsi.Index.DocVectors returns them) with the
// norms of the stored values.
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

// exhaustive is the float ground truth: every row scored with DotNorm32,
// selected through the same bounded heap.
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

func withProcs(t *testing.T, n int) {
	t.Helper()
	old := par.SetMaxProcs(n)
	t.Cleanup(func() { par.SetMaxProcs(old) })
}

func TestQuantizeRoundTripErrorBound(t *testing.T) {
	vecs, _ := clusteredVecs(t, 500, 24, 7, 0.4, 1)
	qm := Quantize(vecs)
	if qm.NumDocs() != 500 || qm.Dim() != 24 {
		t.Fatalf("shape = (%d, %d), want (500, 24)", qm.NumDocs(), qm.Dim())
	}
	for j := 0; j < qm.NumDocs(); j++ {
		row, codes := vecs.Row(j), qm.Row(j)
		maxAbs := 0.0
		for _, v := range row {
			maxAbs = math.Max(maxAbs, math.Abs(v))
		}
		scale := maxAbs / MaxCode
		if want := scale / mat.Norm(row); qm.sn[j] != want {
			t.Fatalf("doc %d: sn = %v, want scale/norm = %v", j, qm.sn[j], want)
		}
		for d, v := range row {
			got := float64(codes[d]) * scale
			// Round-to-nearest guarantees per-element reconstruction error
			// of at most half a quantization step.
			if err := math.Abs(v - got); err > scale/2*(1+1e-12) {
				t.Fatalf("doc %d dim %d: |%v - %v| = %v exceeds scale/2 = %v", j, d, v, got, err, scale/2)
			}
		}
	}
}

func TestQuantizeCodeRangeAndScale(t *testing.T) {
	vecs, _ := clusteredVecs(t, 200, 16, 5, 0.3, 2)
	qm := Quantize(vecs)
	for j := 0; j < qm.NumDocs(); j++ {
		maxAbs := 0.0
		for _, v := range vecs.Row(j) {
			maxAbs = math.Max(maxAbs, math.Abs(v))
		}
		if want := maxAbs / MaxCode / mat.Norm(vecs.Row(j)); qm.sn[j] != want {
			t.Fatalf("doc %d: sn = %v, want maxabs/127/norm = %v", j, qm.sn[j], want)
		}
		peak := 0
		for _, c := range qm.Row(j) {
			if c < -MaxCode || c > MaxCode {
				t.Fatalf("doc %d: code %d outside [-127, 127]", j, c)
			}
			a := int(c)
			if a < 0 {
				a = -a
			}
			if a > peak {
				peak = a
			}
		}
		// The largest-magnitude element of every nonzero row saturates the
		// code range by construction of the symmetric scale.
		if maxAbs > 0 && peak != MaxCode {
			t.Fatalf("doc %d: peak |code| = %d, want %d", j, peak, MaxCode)
		}
	}
}

func TestQuantizeZeroRow(t *testing.T) {
	vecs := mat.NewDense(3, 8)
	copy(vecs.Row(1), []float64{1, -2, 3, -4, 5, -6, 7, -127})
	qm := Quantize(vecs)
	if qm.sn[0] != 0 || qm.sn[2] != 0 {
		t.Fatalf("zero rows got sn %v, %v", qm.sn[0], qm.sn[2])
	}
	for _, c := range qm.Row(0) {
		if c != 0 {
			t.Fatalf("zero row quantized to nonzero code %d", c)
		}
	}
	if qm.sn[1] == 0 {
		t.Fatal("nonzero row got sn 0")
	}
}

func TestQuantizeDeterministicAcrossWorkers(t *testing.T) {
	vecs, _ := clusteredVecs(t, 3000, 20, 11, 0.35, 3)
	var ref *Matrix
	for _, procs := range []int{1, 2, 7} {
		withProcs(t, procs)
		qm := Quantize(vecs)
		if ref == nil {
			ref = qm
			continue
		}
		for i := range qm.codes {
			if qm.codes[i] != ref.codes[i] {
				t.Fatalf("procs=%d: code %d differs", procs, i)
			}
		}
		for j := range qm.sn {
			if math.Float64bits(qm.sn[j]) != math.Float64bits(ref.sn[j]) {
				t.Fatalf("procs=%d: sn %d differs", procs, j)
			}
		}
	}
}

func TestDotInt8MatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 15, 16, 33, 64} {
		x, y := make([]int8, n), make([]int8, n)
		var want int32
		for i := range x {
			x[i] = int8(rng.Intn(255) - 127)
			y[i] = int8(rng.Intn(255) - 127)
			want += int32(x[i]) * int32(y[i])
		}
		if got := mat.DotInt8(x, y); got != want {
			t.Fatalf("n=%d: DotInt8 = %d, want %d", n, got, want)
		}
	}
}

// searchQueries samples noisy near-duplicate queries from the corpus.
func searchQueries(vecs *mat.Dense, nq int, seed int64) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	queries := make([][]float64, nq)
	qns := make([]float64, nq)
	for q := range queries {
		pq := append([]float64(nil), vecs.Row(rng.Intn(vecs.Rows()))...)
		for d := range pq {
			pq[d] += 0.05 * rng.NormFloat64()
		}
		queries[q], qns[q] = pq, mat.Norm(pq)
	}
	return queries, qns
}

func sameMatches(t *testing.T, label string, got, want []topk.Match) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d matches, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i].Doc != want[i].Doc || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			t.Fatalf("%s: match %d = %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

func TestAppendSearchFullCoverageIsExact(t *testing.T) {
	// When topN·β covers the corpus the two-stage search must degenerate
	// to the exact scan bit-for-bit: same kernels, same total order.
	vecs, norms := clusteredVecs(t, 700, 12, 9, 0.3, 5)
	qm := Quantize(vecs)
	queries, qns := searchQueries(vecs, 16, 6)
	for q := range queries {
		want := exhaustive(vecs, norms, queries[q], qns[q], 10)
		got, st := qm.AppendSearch(nil, vecs, norms, queries[q], qns[q], 10, 100)
		sameMatches(t, "covering beta", got, want)
		if st.Scanned != 0 || st.Reranked != 700 {
			t.Fatalf("stats = %+v, want pure exact pass", st)
		}
	}
}

func TestAppendSearchRerankScoresAreExact(t *testing.T) {
	// Whatever candidates stage 1 picks, the scores returned must come
	// from the exact float kernel — bitwise equal to DotNorm on that doc.
	vecs, norms := clusteredVecs(t, 1200, 16, 10, 0.3, 7)
	qm := Quantize(vecs)
	queries, qns := searchQueries(vecs, 8, 8)
	for q := range queries {
		got, st := qm.AppendSearch(nil, vecs, norms, queries[q], qns[q], 10, DefaultBeta)
		if len(got) != 10 {
			t.Fatalf("got %d matches, want 10", len(got))
		}
		if st.Scanned != 1200 || st.Reranked != 40 {
			t.Fatalf("stats = %+v, want Scanned=1200 Reranked=40", st)
		}
		for i, m := range got {
			want := mat.DotNorm32(queries[q], mat.Narrow(vecs).Row(m.Doc), qns[q], norms[m.Doc])
			if math.Float64bits(m.Score) != math.Float64bits(want) {
				t.Fatalf("query %d match %d: score %v, want exact %v", q, i, m.Score, want)
			}
			if i > 0 && !topk.Better(got[i-1], m) {
				t.Fatalf("query %d: matches out of order at %d", q, i)
			}
		}
	}
}

func TestAppendSearchDeterministicAcrossWorkers(t *testing.T) {
	vecs, norms := clusteredVecs(t, 5000, 16, 12, 0.3, 9)
	qm := Quantize(vecs)
	queries, qns := searchQueries(vecs, 8, 10)
	var ref [][]topk.Match
	for _, procs := range []int{1, 3, 8} {
		withProcs(t, procs)
		var all [][]topk.Match
		for q := range queries {
			got, _ := qm.AppendSearch(nil, vecs, norms, queries[q], qns[q], 10, DefaultBeta)
			all = append(all, got)
		}
		if ref == nil {
			ref = all
			continue
		}
		for q := range all {
			sameMatches(t, "worker determinism", all[q], ref[q])
		}
	}
}

func TestAppendSearchOverlapWithFloatPath(t *testing.T) {
	// The fidelity property quant-smoke gates in CI, at unit-test scale:
	// β=4 top-10 overlap with the float path on a clustered corpus.
	vecs, norms := clusteredVecs(t, 20_000, 24, 32, 0.25, 11)
	qm := Quantize(vecs)
	queries, qns := searchQueries(vecs, 32, 12)
	hits, want := 0, 0
	for q := range queries {
		truth := map[int]bool{}
		for _, m := range exhaustive(vecs, norms, queries[q], qns[q], 10) {
			truth[m.Doc] = true
		}
		got, _ := qm.AppendSearch(nil, vecs, norms, queries[q], qns[q], 10, DefaultBeta)
		for _, m := range got {
			if truth[m.Doc] {
				hits++
			}
		}
		want += len(truth)
	}
	if overlap := float64(hits) / float64(want); overlap < 0.98 {
		t.Fatalf("top-10 overlap = %.3f, want >= 0.98", overlap)
	}
}

func TestAppendSearchDocsRestrictsUniverse(t *testing.T) {
	vecs, norms := clusteredVecs(t, 900, 12, 6, 0.3, 13)
	qm := Quantize(vecs)
	queries, qns := searchQueries(vecs, 8, 14)
	docs := make([]int32, 0, 300)
	for j := 0; j < 900; j += 3 {
		docs = append(docs, int32(j))
	}
	for q := range queries {
		f := scan.Float{Vecs: mat.Narrow(vecs), Norms: norms, PQ: queries[q], QN: qns[q], Src: scan.List(docs)}
		got, st := qm.AppendRerank(nil, f, 5, 100)
		if st.Reranked != len(docs) {
			t.Fatalf("stats = %+v, want Reranked=%d", st, len(docs))
		}
		// Covering β makes the restricted search exact over the subset.
		var h topk.Heap
		h.Reset(5)
		for _, j := range docs {
			h.Offer(topk.Match{Doc: int(j), Score: mat.DotNorm32(queries[q], mat.Narrow(vecs).Row(int(j)), qns[q], norms[j])})
		}
		sameMatches(t, "restricted universe", got, h.AppendSorted(nil))
		for _, m := range got {
			if m.Doc%3 != 0 {
				t.Fatalf("match outside candidate list: %+v", m)
			}
		}
	}
}

func TestAppendSearchZeroQuery(t *testing.T) {
	vecs, norms := clusteredVecs(t, 50, 8, 3, 0.3, 15)
	qm := Quantize(vecs)
	pq := make([]float64, 8)
	got, _ := qm.AppendSearch(nil, vecs, norms, pq, 0, 5, DefaultBeta)
	if len(got) != 5 {
		t.Fatalf("got %d matches, want 5", len(got))
	}
	for i, m := range got {
		if m.Score != 0 || m.Doc != i {
			t.Fatalf("zero query match %d = %+v, want doc %d score 0", i, m, i)
		}
	}
}

func TestAppendSearchEmptyDocs(t *testing.T) {
	vecs, norms := clusteredVecs(t, 10, 4, 2, 0.3, 16)
	qm := Quantize(vecs)
	f := scan.Float{Vecs: mat.Narrow(vecs), Norms: norms, PQ: vecs.Row(0), QN: norms[0], Src: scan.List([]int32{})}
	got, st := qm.AppendRerank(nil, f, 3, DefaultBeta)
	if len(got) != 0 || st != (ScanStats{}) {
		t.Fatalf("empty universe returned %v, %+v", got, st)
	}
}

func TestSearchArgChecks(t *testing.T) {
	vecs, norms := clusteredVecs(t, 20, 6, 2, 0.3, 17)
	qm := Quantize(vecs)
	for name, fn := range map[string]func(){
		"dim mismatch":  func() { qm.AppendSearch(nil, vecs, norms, make([]float64, 7), 1, 3, 2) },
		"vecs mismatch": func() { qm.AppendSearch(nil, mat.NewDense(20, 7), norms, make([]float64, 7), 1, 3, 2) },
		"norm mismatch": func() { qm.AppendSearch(nil, vecs, norms[:19], vecs.Row(0), 1, 3, 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}
