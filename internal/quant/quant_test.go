package quant

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	_ "unsafe" // go:linkname

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

// testBeta is the over-fetch factor the search tests run at: β = 4 sits
// on the flat part of the fidelity frontier (EXPERIMENTS.md, the
// quantized scan frontier).
const testBeta = 4

func withProcs(t *testing.T, n int) {
	t.Helper()
	old := par.SetMaxProcs(n)
	t.Cleanup(func() { par.SetMaxProcs(old) })
}

// rotated returns R·v, the vector Quantize and the query path quantize.
func rotated(qm *Matrix, v []float64) []float64 {
	x := append([]float64(nil), v...)
	qm.rot.apply(x)
	return x
}

func TestQuantizeRoundTripErrorBound(t *testing.T) {
	vecs, _ := clusteredVecs(t, 500, 24, 7, 0.4, 1)
	qm := Quantize(vecs)
	if qm.NumDocs() != 500 || qm.Dim() != 24 {
		t.Fatalf("shape = (%d, %d), want (500, 24)", qm.NumDocs(), qm.Dim())
	}
	for j := 0; j < qm.NumDocs(); j++ {
		row, codes := rotated(qm, vecs.Row(j)), qm.Row(j)
		maxAbs := 0.0
		for _, v := range row {
			maxAbs = math.Max(maxAbs, math.Abs(v))
		}
		scale := maxAbs / MaxCode
		if want := float64(float32(scale / mat.Norm(vecs.Row(j)))); qm.sn[j] != want {
			t.Fatalf("doc %d: sn = %v, want scale/norm in float32 = %v", j, qm.sn[j], want)
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
		for _, v := range rotated(qm, vecs.Row(j)) {
			maxAbs = math.Max(maxAbs, math.Abs(v))
		}
		if want := float64(float32(maxAbs / MaxCode / mat.Norm(vecs.Row(j)))); qm.sn[j] != want {
			t.Fatalf("doc %d: sn = %v, want maxabs/127/norm in float32 = %v", j, qm.sn[j], want)
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

// rotationDims are the ranks R is pinned at: powers of two, one block
// and a ragged pair around each, and the ledger's 48 and 64.
var rotationDims = []int{1, 2, 3, 17, 24, 48, 63, 64, 65, 100, 128}

// TestRotationIsOrthogonal pins R as an orthogonal map: it keeps norms
// and inner products to within rotationTol of ‖x‖‖y‖ (each butterfly
// stage rounds once), and it spreads a spike: a one-hot row comes out
// with every coordinate of the block it lands in at 1/√p.
func TestRotationIsOrthogonal(t *testing.T) {
	const rotationTol = 1e-14
	rng := rand.New(rand.NewSource(51))
	for _, k := range rotationDims {
		r := newRotation(k)
		for trial := 0; trial < 20; trial++ {
			x, y := make([]float64, k), make([]float64, k)
			for i := range x {
				x[i], y[i] = rng.NormFloat64(), rng.NormFloat64()*float64(1+trial)
			}
			nx, ny, dot := mat.Norm(x), mat.Norm(y), mat.Dot(x, y)
			rx, ry := append([]float64(nil), x...), append([]float64(nil), y...)
			r.apply(rx)
			r.apply(ry)
			if d := math.Abs(mat.Norm(rx) - nx); d > rotationTol*nx {
				t.Fatalf("k=%d: ‖Rx‖ − ‖x‖ = %g, want within %g·‖x‖", k, d, rotationTol)
			}
			if d := math.Abs(mat.Dot(rx, ry) - dot); d > rotationTol*nx*ny {
				t.Fatalf("k=%d: ⟨Rx, Ry⟩ − ⟨x, y⟩ = %g, want within %g·‖x‖‖y‖", k, d, rotationTol)
			}
		}
		if k&(k-1) == 0 {
			e := make([]float64, k)
			e[k/3] = 1
			r.apply(e)
			for i, x := range e {
				if math.Abs(math.Abs(x)-1/math.Sqrt(float64(k))) > 1e-15 {
					t.Fatalf("k=%d: R·e_%d has coordinate %d = %g, want ±1/√k", k, k/3, i, x)
				}
			}
		}
	}
}

// TestQuantizeRotatedRowsAreDeterministic pins the rotated quantization
// at every rank of rotationDims: codes and sn bitwise the same at
// MaxProcs 1, 2 and 4 and with the AVX2 kernels off; a zero row gives
// zero codes and sn 0; a NaN or Inf row gives no code below −127.
func TestQuantizeRotatedRowsAreDeterministic(t *testing.T) {
	avx2 := matHasAVX2
	t.Cleanup(func() { matHasAVX2 = avx2 })
	for _, k := range rotationDims {
		vecs, _ := clusteredVecs(t, 600, k, 5, 0.3, int64(60+k))
		stored := mat.Narrow(vecs)
		clear(stored.Row(7))
		stored.Row(8)[0] = float32(math.NaN())
		stored.Row(9)[k-1] = float32(math.Inf(-1))
		var ref *Matrix
		for _, on := range []bool{avx2, false} {
			matHasAVX2 = on
			for _, procs := range []int{1, 2, 4} {
				withProcs(t, procs)
				qm := Quantize32(stored)
				if ref == nil {
					ref = qm
				} else if !bytes.Equal(qm.Encode(), ref.Encode()) {
					t.Fatalf("k=%d avx2=%v procs=%d: codes or sn differ", k, on, procs)
				}
			}
		}
		if ref.sn[7] != 0 || slices.ContainsFunc(ref.Row(7), func(c int8) bool { return c != 0 }) {
			t.Fatalf("k=%d: zero row quantized to sn %v, codes %v", k, ref.sn[7], ref.Row(7))
		}
		if slices.Contains(ref.codes, math.MinInt8) {
			t.Fatalf("k=%d: a code is -128", k)
		}
	}
}

// TestQuantizeDuplicateDocumentsTie: two copies of a document, whose
// stored rows differ only in coordinates that are numerically zero (as an
// SVD leaves them), get the same codes and sn, so stage 1 ties them as the
// exact scores do and the (score desc, doc asc) order survives the rerank.
// The rows are those of two copies in a rank-6 test index.
func TestQuantizeDuplicateDocumentsTie(t *testing.T) {
	rows := mat.NewDense32(2, 6)
	copy(rows.Row(0), []float32{3.2886534, -1.1573537e-15, -2.2362074e-15, -8.332845e-05, -0.5677164, 0.011204518})
	copy(rows.Row(1), []float32{3.2886534, 1.5704203e-17, -8.8388676e-17, -8.332845e-05, -0.5677164, 0.011204518})
	qm := Quantize32(rows)
	if !slices.Equal(qm.Row(0), qm.Row(1)) || qm.sn[0] != qm.sn[1] {
		t.Fatalf("copies quantize apart: codes %v, %v; sn %v, %v", qm.Row(0), qm.Row(1), qm.sn[0], qm.sn[1])
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
		got, st := qm.AppendSearch(nil, vecs, norms, queries[q], qns[q], 10, testBeta)
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
			got, _ := qm.AppendSearch(nil, vecs, norms, queries[q], qns[q], 10, testBeta)
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

// overlapAt10 is the top-10 overlap of AppendSearch at beta with the float
// path, over every query.
func overlapAt10(vecs *mat.Dense, norms []float64, qm *Matrix, queries [][]float64, qns []float64, beta int) float64 {
	hits, want := 0, 0
	for q := range queries {
		truth := map[int]bool{}
		for _, m := range exhaustive(vecs, norms, queries[q], qns[q], 10) {
			truth[m.Doc] = true
		}
		got, _ := qm.AppendSearch(nil, vecs, norms, queries[q], qns[q], 10, beta)
		for _, m := range got {
			if truth[m.Doc] {
				hits++
			}
		}
		want += len(truth)
	}
	return float64(hits) / float64(want)
}

func TestAppendSearchOverlapWithFloatPath(t *testing.T) {
	// The int8 tier's fidelity property, at unit-test scale: β=4 top-10
	// overlap with the float path on a clustered corpus. (The quant-smoke
	// gate that checked it at corpus scale was retired with cmd/quantsmoke.)
	vecs, norms := clusteredVecs(t, 20_000, 24, 32, 0.25, 11)
	queries, qns := searchQueries(vecs, 32, 12)
	if overlap := overlapAt10(vecs, norms, Quantize(vecs), queries, qns, testBeta); overlap < 0.98 {
		t.Fatalf("top-10 overlap = %.3f, want >= 0.98", overlap)
	}
}

// spikyVecs samples m rows of the shape LSI stores, then nq queries of
// the same shape. Each of dim topic directions puts 1 on its own
// coordinate and N(0, 0.12²) on the others, so one coordinate holds at
// least 0.6 of every row's norm (a rank-64 ledger index reads a median
// 0.68); a row is its topic's direction plus N(0, 0.015²) noise, a narrow
// cone whose top-10 order the int8 step must resolve. The rows are stored
// as an index stores them, like clusteredVecs'.
func spikyVecs(t testing.TB, m, dim, nq int, seed int64) (*mat.Dense, []float64, [][]float64, []float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	dirs := mat.NewDense(dim, dim)
	for c := 0; c < dim; c++ {
		for d := range dim {
			dirs.Set(c, d, 0.12*rng.NormFloat64())
		}
		dirs.Set(c, c, 1)
	}
	draw := func(n int) *mat.Dense {
		out := mat.NewDense(n, dim)
		for j := 0; j < n; j++ {
			for d, x := range dirs.Row(j % dim) {
				out.Set(j, d, x+0.015*rng.NormFloat64())
			}
		}
		return out
	}
	stored, qs := mat.Narrow(draw(m)), draw(nq)
	norms := make([]float64, m)
	for j := range norms {
		norms[j] = mat.Norm(stored.Row(j))
	}
	queries, qns := make([][]float64, nq), make([]float64, nq)
	for q := range queries {
		queries[q], qns[q] = qs.Row(q), mat.Norm(qs.Row(q))
	}
	return stored.Widen(), norms, queries, qns
}

// TestAppendSearchOverlapOnSpikyRows is the fidelity gate on rows of the
// LSI shape, where a per-row max|x|/127 scale spends the codes on one
// coordinate unless R spreads it first. Without the rotation the same
// rows read 0.663 at β = 4 and 0.973 at β = 16; with it, 0.855 and 1.
func TestAppendSearchOverlapOnSpikyRows(t *testing.T) {
	vecs, norms, queries, qns := spikyVecs(t, 20_000, 64, 64, 41)
	for j := range norms {
		peak := 0.0
		for _, x := range vecs.Row(j) {
			peak = math.Max(peak, math.Abs(x))
		}
		if peak < 0.6*norms[j] {
			t.Fatalf("row %d: its largest coordinate holds %.3f of its norm, want >= 0.6", j, peak/norms[j])
		}
	}
	qm := Quantize(vecs)
	for _, c := range []struct {
		beta  int
		floor float64
	}{{4, 0.80}, {16, 0.99}} {
		if overlap := overlapAt10(vecs, norms, qm, queries, qns, c.beta); overlap < c.floor {
			t.Errorf("β = %d: top-10 overlap = %.4f, want >= %.2f", c.beta, overlap, c.floor)
		}
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
	got, _ := qm.AppendSearch(nil, vecs, norms, pq, 0, 5, testBeta)
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
	got, st := qm.AppendRerank(nil, f, 3, testBeta)
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

// matHasAVX2 is internal/mat's dispatch switch for its AVX2 kernels, so
// this package's tests can run the portable DotInt8Blocked too.
//
//go:linkname matHasAVX2 repro/internal/mat.hasAVX2
var matHasAVX2 bool

// TestStage1ListMatchesRows pins the one stage-1 loop's two sources to
// each other: a List naming every row of the matrix (in a cell-like
// shuffled order) keeps bitwise the candidates a Rows source keeps —
// the same documents, scores and order — across block edges, chunk
// edges (a small grain, MaxProcs 1, 2 and 4), tied duplicate rows and a
// dimension with a ragged 16-lane tail, with the AVX2 kernel on and off.
// The two-stage answers over the List source (the composed route's
// shape) are bitwise the same in every one of those settings.
func TestStage1ListMatchesRows(t *testing.T) {
	const m, dim, keep, grain = 3000, 20, 40, 700
	vecs, _ := clusteredVecs(t, m, dim, 7, 0.3, 21)
	stored := mat.Narrow(vecs)
	for j := 0; j < m; j += 5 {
		copy(stored.Row(j+1), stored.Row(j)) // exact duplicates tie in stage 1
	}
	vecs = stored.Widen()
	norms := make([]float64, m)
	for j := range norms {
		norms[j] = mat.Norm(stored.Row(j))
	}
	qm := Quantize32(stored)
	queries, qns := searchQueries(vecs, 6, 22)
	perm := rand.New(rand.NewSource(23)).Perm(m)
	list := make([]int32, m)
	for i, j := range perm {
		list[i] = int32(j)
	}
	stage1 := func(pq []float64, src scan.Source) []topk.Match {
		q8, q16 := make([]int8, dim), make([]int16, dim)
		quantizeVec(q8, rotated(qm, pq))
		for i, c := range q8 {
			q16[i] = int16(c)
		}
		return scan.AppendTop(nil, src.Len(), keep, grain, int8Scan{m: qm, q16: q16, src: src, keep: keep})
	}
	avx2 := matHasAVX2
	t.Cleanup(func() { matHasAVX2 = avx2 })
	answers := make([][]topk.Match, len(queries))
	for _, on := range []bool{avx2, false} {
		matHasAVX2 = on
		for _, procs := range []int{1, 2, 4} {
			withProcs(t, procs)
			for q, pq := range queries {
				label := fmt.Sprintf("avx2=%v procs=%d query %d", on, procs, q)
				rows := stage1(pq, scan.Rows(m))
				if len(rows) != keep {
					t.Fatalf("rows source kept %d candidates, want %d", len(rows), keep)
				}
				sameMatches(t, label, stage1(pq, scan.List(list)), rows)
				f := scan.Float{Vecs: stored, Norms: norms, PQ: pq, QN: qns[q], Src: scan.List(list)}
				got, _ := qm.AppendRerank(nil, f, 10, 4)
				if answers[q] == nil {
					answers[q] = got
				}
				sameMatches(t, label+" answers", got, answers[q])
			}
		}
	}
}
