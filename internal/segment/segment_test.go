package segment

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
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
	if s1.Global(0) != 100 || s2.Global(0) != 100 || s2.Global(1) != 101 {
		t.Fatalf("globals %d / %d, %d", s1.Global(0), s2.Global(0), s2.Global(1))
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
	for j := range comp.Len() {
		if g := comp.Global(j); g != j {
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
			if err := comp.Ix.SaveIn(&buf, nil); err != nil {
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

// TestNumberingIsOneRule pins the segment's numbering: New and Extend
// take a list of global numbers but keep only the rule first + stride·j,
// so they refuse any list that is not one such rule; an empty or
// one-document segment takes its stride from its next Extend; and Merge
// and Compact refuse segments whose rules do not continue one another.
func TestNumberingIsOneRule(t *testing.T) {
	a := testMatrix(t, 3, 12, 40, 211)
	ix, err := lsi.Build(a, 3, lsi.Options{Engine: lsi.EngineRandomized, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	n, _ := a.Dims()
	cols := func(lo, hi int) (terms [][]int, weights [][]float64) {
		for j := lo; j < hi; j++ {
			ts, ws := sparseCol(a, j)
			terms, weights = append(terms, ts), append(weights, ws)
		}
		return terms, weights
	}
	empty, err := New(ix.EmptyLike(), nil, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	// extend folds columns [lo, lo+len(global)) numbered global into from.
	extend := func(from *Segment, lo int, global ...int) (*Segment, error) {
		terms, weights := cols(lo, lo+len(global))
		return from.Extend(terms, weights, global)
	}
	globals := func(s *Segment) []int {
		g := make([]int, s.Len())
		for j := range g {
			g[j] = s.Global(j)
		}
		return g
	}

	t.Run("lists_that_are_not_one_rule", func(t *testing.T) {
		for _, bad := range [][]int{{5, 3, 1}, {0, 1, 3}, {4, 4, 4}, {2, 2, 3}} {
			terms, weights := cols(0, len(bad))
			grown, err := ix.EmptyLike().ExtendedSparse(terms, weights)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := New(grown, bad, nil, true); err == nil {
				t.Errorf("New accepted %v", bad)
			}
			if _, err := extend(empty, 0, bad...); err == nil {
				t.Errorf("Extend of an empty segment accepted %v", bad)
			}
		}
		s, err := extend(empty, 0, 1, 4)
		if err != nil {
			t.Fatal(err)
		}
		for _, bad := range [][]int{{6}, {7, 11}, {7, 10, 12}, {4}, {2}} {
			if _, err := extend(s, 2, bad...); err == nil {
				t.Errorf("Extend of %v accepted %v", globals(s), bad)
			}
		}
	})

	t.Run("strides_come_from_the_next_extend", func(t *testing.T) {
		for _, tc := range []struct {
			steps [][]int // one Extend each, from an empty segment
			want  []int
		}{
			{[][]int{{7}, {10}, {13, 16}}, []int{7, 10, 13, 16}},
			{[][]int{{}, {2}, {3, 4}}, []int{2, 3, 4}},
			{[][]int{{5}, {8, 11, 14}}, []int{5, 8, 11, 14}},
			{[][]int{{0, 2}, {}, {4}}, []int{0, 2, 4}},
		} {
			s, lo := empty, 0
			for _, g := range tc.steps {
				if s, err = extend(s, lo, g...); err != nil {
					t.Fatalf("%v: %v", tc.steps, err)
				}
				lo += len(g)
			}
			if got := globals(s); !slices.Equal(got, tc.want) {
				t.Errorf("%v: numbers %v, want %v", tc.steps, got, tc.want)
			}
		}
		one, err := extend(empty, 0, 9)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := extend(one, 1, 9); err == nil {
			t.Error("a one-document segment took stride 0")
		}
		if _, err := extend(one, 1, 8); err == nil {
			t.Error("a one-document segment took a negative stride")
		}
	})

	t.Run("merge_and_compact_take_consecutive_segments", func(t *testing.T) {
		s1, err := extend(empty, 0, 1, 3, 5)
		if err != nil {
			t.Fatal(err)
		}
		next, err := extend(empty, 3, 7, 9)
		if err != nil {
			t.Fatal(err)
		}
		gap, err := extend(empty, 3, 9, 11)
		if err != nil {
			t.Fatal(err)
		}
		wide, err := extend(empty, 3, 7, 10)
		if err != nil {
			t.Fatal(err)
		}
		one, err := extend(empty, 3, 7)
		if err != nil {
			t.Fatal(err)
		}
		for _, segs := range [][]*Segment{{s1, next}, {s1, one}} {
			m, err := Merge(segs)
			if err != nil {
				t.Fatal(err)
			}
			c, err := Compact(segs, n, CompactOptions{K: 3, Seed: 2})
			if err != nil {
				t.Fatal(err)
			}
			want := append(globals(segs[0]), globals(segs[1])...)
			if !slices.Equal(globals(m), want) || !slices.Equal(globals(c), want) {
				t.Errorf("merged %v, compacted %v, want %v", globals(m), globals(c), want)
			}
		}
		for _, segs := range [][]*Segment{{s1, gap}, {s1, wide}, {next, s1}, {s1, s1}} {
			if _, err := Merge(segs); err == nil {
				t.Errorf("Merge accepted %v then %v", globals(segs[0]), globals(segs[1]))
			}
			if _, err := Compact(segs, n, CompactOptions{K: 3, Seed: 2}); err == nil {
				t.Errorf("Compact accepted %v then %v", globals(segs[0]), globals(segs[1]))
			}
		}
	})
}

// TestMergeSettlesWithoutRaw: Merge's result keeps no raw documents, its
// rows and norms are bitwise its inputs' in order, and such a settled
// tier merges again with later fold-ins of the same basis — but not with
// a segment over another basis.
func TestMergeSettlesWithoutRaw(t *testing.T) {
	a := testMatrix(t, 3, 12, 60, 215)
	ix, err := lsi.Build(a, 3, lsi.Options{Engine: lsi.EngineRandomized, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	fold := func(lo, hi int) *Segment {
		var terms [][]int
		var weights [][]float64
		for j := lo; j < hi; j++ {
			ts, ws := sparseCol(a, j)
			terms, weights = append(terms, ts), append(weights, ws)
		}
		s, err := (&Segment{Ix: ix.EmptyLike()}).Extend(terms, weights, identity2(lo, hi))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	sameRows := func(got *Segment, parts ...*Segment) {
		t.Helper()
		var rows []float32
		var norms []float64
		for _, p := range parts {
			rows = append(rows, p.Ix.Docs().RawData()...)
			norms = append(norms, p.Ix.Norms()...)
		}
		if !slices.Equal(got.Ix.Docs().RawData(), rows) || len(got.Ix.Norms()) != len(norms) {
			t.Fatal("merged rows differ from the inputs'")
		}
		for i, v := range norms {
			if math.Float64bits(got.Ix.Norms()[i]) != math.Float64bits(v) {
				t.Fatalf("norm %d: %v, input %v", i, got.Ix.Norms()[i], v)
			}
		}
		for j := range got.Len() {
			if got.Global(j) != j+parts[0].Global(0) {
				t.Fatalf("global[%d] = %d", j, got.Global(j))
			}
		}
	}
	s1, s2, s3 := fold(0, 20), fold(20, 45), fold(45, 60)
	tier, err := Merge([]*Segment{s1, s2})
	if err != nil {
		t.Fatal(err)
	}
	if tier.Raw != nil || !tier.Compacted {
		t.Fatalf("merged tier raw=%v compacted=%v, want no raw and compacted", tier.Raw, tier.Compacted)
	}
	sameRows(tier, s1, s2)
	again, err := Merge([]*Segment{tier, s3})
	if err != nil {
		t.Fatal(err)
	}
	if again.Raw != nil {
		t.Fatal("re-merged tier kept raw documents")
	}
	sameRows(again, s1, s2, s3)

	other, err := lsi.Build(a, 3, lsi.Options{Engine: lsi.EngineRandomized, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	foreign, err := FromRule(other.EmptyLike(), 60, 1, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Merge([]*Segment{s3, foreign}); err == nil {
		t.Fatal("Merge accepted a segment over another basis")
	}
}

// TestFromRuleIsNewOfItsList: a segment built from a rule numbers its
// rows as New does from the rule's list, takes its stride from the next
// row when it holds fewer than two, and refuses a stride below 1 and raw
// documents that do not match its rows.
func TestFromRuleIsNewOfItsList(t *testing.T) {
	a := testMatrix(t, 2, 8, 12, 216)
	ix, err := lsi.Build(a, 2, lsi.Options{Engine: lsi.EngineDense})
	if err != nil {
		t.Fatal(err)
	}
	list := make([]int, 12)
	for j := range list {
		list[j] = 3 + 4*j
	}
	fromList, err := New(ix, list, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	fromRule, err := FromRule(ix, 3, 4, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	if fromRule.num != fromList.num || !fromRule.Compacted || fromRule.Raw != nil {
		t.Fatalf("rule %+v, list %+v", fromRule.num, fromList.num)
	}
	for _, stride := range []int{0, -2} {
		if _, err := FromRule(ix, 3, stride, nil, true); err == nil {
			t.Errorf("FromRule took stride %d over 12 documents", stride)
		}
	}
	if _, err := FromRule(ix, 3, 4, &Raw{Terms: make([][]int, 11), Weights: make([][]float64, 11)}, true); err == nil {
		t.Error("FromRule took 11 raw documents for 12 rows")
	}
	one, err := FromRule(ix.EmptyLike(), 5, 0, nil, false)
	if err != nil || one.Len() != 0 {
		t.Fatalf("empty segment: %v", err)
	}
	terms, weights := sparseCol(a, 0)
	grown, err := one.Extend([][]int{terms}, [][]float64{weights}, []int{5})
	if err == nil {
		grown, err = grown.Extend([][]int{terms}, [][]float64{weights}, []int{9})
	}
	if err != nil || grown.Global(1) != 9 {
		t.Fatalf("stride from the next rows: %v", err)
	}
}
