package segment

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/corpus"
	"repro/internal/lsi"
	"repro/internal/par"
	"repro/internal/sparse"
	"repro/internal/topk"
)

// testMatrix builds a small labeled term-document matrix.
func testMatrix(t *testing.T, topics, termsPer, m int, seed int64) *sparse.CSR {
	t.Helper()
	model, err := corpus.PureSeparableModel(corpus.SeparableConfig{
		NumTopics: topics, TermsPerTopic: termsPer, Epsilon: 0.05, MinLen: 40, MaxLen: 60,
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := corpus.Generate(model, m, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return corpus.TermDocMatrix(c, corpus.CountWeighting)
}

// sparseCol extracts column j of a in sorted sparse form.
func sparseCol(a *sparse.CSR, j int) (terms []int, weights []float64) {
	n, _ := a.Dims()
	for t := 0; t < n; t++ {
		if v := a.At(t, j); v != 0 {
			terms = append(terms, t)
			weights = append(weights, v)
		}
	}
	return terms, weights
}

// identity returns [0, 1, ..., n).
func identity(n int) []int {
	g := make([]int, n)
	for i := range g {
		g[i] = i
	}
	return g
}

// searchSparse is the exhaustive Search of a sparse query.
func searchSparse(segs []*Segment, terms []int, weights []float64, topN int) []topk.Match {
	ms, _ := Search(segs, Query{Terms: terms, Weights: weights}, topN, ProbeOptions{})
	return ms
}

func sameMatches(t *testing.T, got, want []topk.Match, context string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d matches, want %d", context, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: match %d = %+v, want %+v (bitwise)", context, i, got[i], want[i])
		}
	}
}

func TestSingleSegmentSearchMatchesLSIBitwise(t *testing.T) {
	a := testMatrix(t, 3, 12, 40, 201)
	ix, err := lsi.Build(a, 3, lsi.Options{Engine: lsi.EngineDense})
	if err != nil {
		t.Fatal(err)
	}
	seg, err := New(ix, identity(ix.NumDocs()), nil, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, topN := range []int{0, 1, 5, 40, 100} {
		for j := 0; j < 5; j++ {
			terms, weights := sparseCol(a, j)
			want := ix.SearchSparse(terms, weights, topN)
			got := searchSparse([]*Segment{seg}, terms, weights, topN)
			sameMatches(t, got, want, "sparse")

			wantV := ix.Search(a.Col(j), topN)
			gotV, _ := Search([]*Segment{seg}, Query{Vec: a.Col(j)}, topN, ProbeOptions{})
			sameMatches(t, gotV, wantV, "dense")
		}
	}
}

func TestSearchDeterministicAcrossWorkerCounts(t *testing.T) {
	a := testMatrix(t, 4, 12, 120, 202)
	n, m := a.Dims()
	_ = n
	// Three segments over disjoint slices of the corpus, two sharing a
	// basis (fold-in) and one with its own.
	base, err := lsi.Build(a, 4, lsi.Options{Engine: lsi.EngineRandomized, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	segA, err := New(base, identity(m), nil, true)
	if err != nil {
		t.Fatal(err)
	}
	live, err := New(base.EmptyLike(), nil, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	var terms [][]int
	var weights [][]float64
	for j := 0; j < 30; j++ {
		ts, ws := sparseCol(a, j)
		terms = append(terms, ts)
		weights = append(weights, ws)
	}
	segB, err := live.Extend(terms, weights, identity2(m, m+30))
	if err != nil {
		t.Fatal(err)
	}
	segs := []*Segment{segA, segB}

	qt, qw := sparseCol(a, 3)
	prev := par.SetMaxProcs(1)
	defer par.SetMaxProcs(prev)
	want := searchSparse(segs, qt, qw, 17)
	for _, workers := range []int{2, 3, 8} {
		par.SetMaxProcs(workers)
		got := searchSparse(segs, qt, qw, 17)
		sameMatches(t, got, want, "workers")
	}
}

// identity2 returns [lo, lo+1, ..., hi).
func identity2(lo, hi int) []int {
	g := make([]int, hi-lo)
	for i := range g {
		g[i] = lo + i
	}
	return g
}

func TestExtendIsCopyOnWrite(t *testing.T) {
	a := testMatrix(t, 3, 10, 30, 203)
	ix, err := lsi.Build(a, 3, lsi.Options{Engine: lsi.EngineDense})
	if err != nil {
		t.Fatal(err)
	}
	live, err := New(ix.EmptyLike(), nil, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	t0, w0 := sparseCol(a, 0)
	s1, err := live.Extend([][]int{t0}, [][]float64{w0}, []int{100})
	if err != nil {
		t.Fatal(err)
	}
	t1, w1 := sparseCol(a, 1)
	s2, err := s1.Extend([][]int{t1}, [][]float64{w1}, []int{101})
	if err != nil {
		t.Fatal(err)
	}
	// The older states must be untouched by the newer extensions.
	if live.Len() != 0 || s1.Len() != 1 || s2.Len() != 2 {
		t.Fatalf("lengths %d/%d/%d, want 0/1/2", live.Len(), s1.Len(), s2.Len())
	}
	if s1.Global[0] != 100 || s2.Global[1] != 101 {
		t.Fatalf("globals %v / %v", s1.Global, s2.Global)
	}
	if s1.Raw.Len() != 1 || s2.Raw.Len() != 2 {
		t.Fatalf("raw lengths %d/%d", s1.Raw.Len(), s2.Raw.Len())
	}
	// Row 0 of both extensions is the same projection.
	r1, r2 := s1.Ix.DocVector(0), s2.Ix.DocVector(0)
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatal("extension rewrote an existing row")
		}
	}
}

func TestCompactMergesAndRebuilds(t *testing.T) {
	a := testMatrix(t, 3, 12, 60, 204)
	ix, err := lsi.Build(a, 3, lsi.Options{Engine: lsi.EngineRandomized, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Two fold-in segments over columns 0..29 and 30..59.
	mk := func(lo, hi int) *Segment {
		live, err := New(ix.EmptyLike(), nil, nil, false)
		if err != nil {
			t.Fatal(err)
		}
		var terms [][]int
		var weights [][]float64
		for j := lo; j < hi; j++ {
			ts, ws := sparseCol(a, j)
			terms = append(terms, ts)
			weights = append(weights, ws)
		}
		s, err := live.Extend(terms, weights, identity2(lo, hi))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s1, s2 := mk(0, 30), mk(30, 60)
	n, _ := a.Dims()
	comp, err := Compact([]*Segment{s1, s2}, n, CompactOptions{K: 3, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if !comp.Compacted || comp.Raw != nil {
		t.Fatalf("compacted=%v raw=%v", comp.Compacted, comp.Raw)
	}
	if comp.Len() != 60 {
		t.Fatalf("compacted segment has %d docs, want 60", comp.Len())
	}
	for j, g := range comp.Global {
		if g != j {
			t.Fatalf("global[%d] = %d after merge", j, g)
		}
	}
	// Self-retrieval: querying with a document's own vector must return
	// that document within the top results.
	hits := 0
	for j := 0; j < 60; j += 7 {
		terms, weights := sparseCol(a, j)
		res := searchSparse([]*Segment{comp}, terms, weights, 3)
		for _, m := range res {
			if m.Doc == j {
				hits++
				break
			}
		}
	}
	if hits < 7 {
		t.Fatalf("self-retrieval hit %d/9 sampled docs", hits)
	}
	// Compaction of the same inputs with the same seed is deterministic.
	comp2, err := Compact([]*Segment{s1, s2}, n, CompactOptions{K: 3, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	qt, qw := sparseCol(a, 5)
	sameMatches(t, searchSparse([]*Segment{comp2}, qt, qw, 10),
		searchSparse([]*Segment{comp}, qt, qw, 10), "deterministic compaction")
}

// Compaction is lsi.Build under EngineAuto at every merge size: the
// segment comes out at rank min(K, rank bound) whatever was merged, and,
// being svd.Randomized from 32 documents up, its bytes depend on the seed
// alone, not on par.MaxProcs.
func TestCompactOnePath(t *testing.T) {
	const k = 64
	for _, docs := range []int{40, 128, 300, 1024} {
		seg, n := ledgerSealed(t, docs)
		var first []byte
		for _, procs := range []int{1, 1, 2, 4} {
			old := par.SetMaxProcs(procs)
			comp, err := Compact([]*Segment{seg}, n, CompactOptions{K: k, Seed: 9})
			par.SetMaxProcs(old)
			if err != nil {
				t.Fatal(err)
			}
			if want := min(k, docs); comp.Ix.K() != want {
				t.Fatalf("%d docs: compacted rank %d, want %d", docs, comp.Ix.K(), want)
			}
			var buf bytes.Buffer
			if err := comp.Ix.Save(&buf); err != nil {
				t.Fatal(err)
			}
			if first == nil {
				first = buf.Bytes()
			} else if !bytes.Equal(buf.Bytes(), first) {
				t.Fatalf("%d docs, MaxProcs=%d: compacted bytes differ from the first MaxProcs=1 run", docs, procs)
			}
		}
	}
}

func TestCompactRejectsSegmentsWithoutRaw(t *testing.T) {
	a := testMatrix(t, 2, 8, 12, 206)
	ix, err := lsi.Build(a, 2, lsi.Options{Engine: lsi.EngineDense})
	if err != nil {
		t.Fatal(err)
	}
	seg, err := New(ix, identity(12), nil, true)
	if err != nil {
		t.Fatal(err)
	}
	n, _ := a.Dims()
	if _, err := Compact([]*Segment{seg}, n, CompactOptions{K: 2}); err == nil {
		t.Fatal("compacting a raw-less segment did not fail")
	}
}
