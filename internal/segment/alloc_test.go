package segment

import (
	"bytes"
	"encoding/binary"
	"sync"
	"testing"

	"repro/internal/blob"
	"repro/internal/ivf"
	"repro/internal/lsi"
	"repro/internal/mat"
	"repro/internal/par"
	"repro/internal/quant"
	"repro/internal/race"
	"repro/internal/scan"
	"repro/internal/topk"
)

// tieredSegment builds one segment over a 400-document corpus carrying
// both sidecars, and returns it with the corpus matrix.
func tieredSegment(t *testing.T) (*Segment, *lsi.Index, func(j int) Query) {
	t.Helper()
	a := testMatrix(t, 4, 12, 400, 207)
	ix, err := lsi.Build(a, 4, lsi.Options{Engine: lsi.EngineRandomized, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	ann, err := ivf.Train(ix.DocVectors(), ix.Norms(), ivf.TrainOptions{NList: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	seg, err := New(ix, identity(ix.NumDocs()), nil, true)
	if err != nil {
		t.Fatal(err)
	}
	if seg, err = seg.WithAnn(ann); err != nil {
		t.Fatal(err)
	}
	if seg, err = seg.WithQuant(quant.Quantize(ix.DocVectors())); err != nil {
		t.Fatal(err)
	}
	return seg, ix, func(j int) Query {
		terms, weights := sparseCol(a, j)
		return Query{Terms: terms, Weights: weights}
	}
}

// TestSearchAddsOnlyTheResultSlice pins the allocation parity the
// unsharded hot path depends on: a warm Search over one segment
// allocates the slice it returns and nothing else of its own — fold,
// candidate buffers and merge heap are pooled — on all four routes. The
// exact route is therefore exactly 1; the tier routes are 1 plus
// whatever the ivf/quant call underneath allocates by itself (their
// scan closures, measured here the same way).
func TestSearchAddsOnlyTheResultSlice(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	seg, ix, query := tieredSegment(t)
	segs := []*Segment{seg}
	q := query(3)
	defer par.SetMaxProcs(par.SetMaxProcs(1))

	const topN, nprobe, beta = 10, 2, 2
	vecs, norms := ix.DocVectors(), ix.Norms()
	pq := ix.ProjectSparse(q.Terms, q.Weights)
	qn := mat.Norm(pq)
	buf := make([]topk.Match, 0, topN*beta)
	var docs []int32
	for _, route := range []struct {
		name  string
		opts  ProbeOptions
		below func() // the same work done by calling the layer below directly
	}{
		{"exact", ProbeOptions{}, func() { buf = ix.AppendSearchProjected(buf[:0], pq, topN) }},
		{"ann", ProbeOptions{NProbe: nprobe}, func() {
			buf, _ = seg.Ann.AppendSearch(buf[:0], vecs, norms, pq, qn, topN, nprobe)
		}},
		{"quant", ProbeOptions{Beta: beta}, func() {
			buf, _ = seg.Quant.AppendSearch(buf[:0], vecs, norms, pq, qn, topN, beta)
		}},
		{"composed", ProbeOptions{NProbe: nprobe, Beta: beta}, func() {
			docs, _ = seg.Ann.AppendProbeDocs(docs[:0], pq, qn, nprobe)
			f := scan.Float{Vecs: ix.Docs(), Norms: norms, PQ: pq, QN: qn, Src: scan.List(docs)}
			buf, _ = seg.Quant.AppendRerank(buf[:0], f, topN, beta)
		}},
	} {
		below := testing.AllocsPerRun(100, route.below)
		got := testing.AllocsPerRun(100, func() { Search(segs, q, topN, route.opts) })
		if got != below+1 {
			t.Errorf("%s: Search allocates %v/op over a layer that allocates %v/op, want exactly one more (the result slice)", route.name, got, below)
		}
		if route.name == "exact" && below != 0 {
			t.Errorf("exact: lsi.AppendSearchProjected allocates %v/op, want 0", below)
		}
	}
}

// TestSearchRoutesRecordTheirWork checks the router itself: each option
// set takes the route it names on a segment carrying both sidecars, says
// so in ProbeStats, falls back to the exact scan on a segment carrying
// none, and — saturated — reproduces the exact scan bitwise.
func TestSearchRoutesRecordTheirWork(t *testing.T) {
	seg, ix, query := tieredSegment(t)
	bare, err := New(ix, identity(seg.Len()), nil, true)
	if err != nil {
		t.Fatal(err)
	}
	m := seg.Len()
	q := query(5)
	want, st := Search([]*Segment{seg}, q, 10, ProbeOptions{})
	if st != (ProbeStats{ExactDocs: m}) {
		t.Fatalf("zero options: stats %+v, want only ExactDocs = %d", st, m)
	}
	for _, tc := range []struct {
		name      string
		opts      ProbeOptions
		ann, int8 bool
	}{
		{"ann", ProbeOptions{NProbe: 2}, true, false},
		{"quant", ProbeOptions{Beta: 2}, false, true},
		{"composed", ProbeOptions{NProbe: 2, Beta: 2}, true, true},
	} {
		_, st := Search([]*Segment{seg}, q, 10, tc.opts)
		if (st.Probed == 1) != tc.ann || (st.QuantSegs == 1) != tc.int8 || st.ExactDocs != 0 {
			t.Errorf("%s: stats %+v", tc.name, st)
		}
		if tc.ann && (st.Cells != 2 || st.Docs <= 0 || st.Docs >= m) {
			t.Errorf("%s: probed %d cells / %d docs of %d", tc.name, st.Cells, st.Docs, m)
		}
		if tc.int8 && (st.QuantDocs <= 0 || st.Reranked != 20) {
			t.Errorf("%s: scanned %d, reranked %d, want 20 reranked", tc.name, st.QuantDocs, st.Reranked)
		}
		got, st := Search([]*Segment{bare}, q, 10, tc.opts)
		sameMatches(t, got, want, tc.name+" without sidecars")
		if st != (ProbeStats{ExactDocs: m}) {
			t.Errorf("%s without sidecars: stats %+v, want the exact scan", tc.name, st)
		}
	}
	full, _ := Search([]*Segment{seg}, q, 10, ProbeOptions{NProbe: 8, Beta: m})
	sameMatches(t, full, want, "saturated budgets")

	var c Counters
	_, st = Search([]*Segment{seg, bare}, q, 10, ProbeOptions{NProbe: 2, Beta: 2})
	c.Add(st)
	c.Add(ProbeStats{ExactDocs: m}) // an exact search moves nothing
	if tot := c.Totals(); tot != (Totals{
		AnnSearches: 1, AnnCells: int64(st.Cells), AnnDocs: int64(st.Docs),
		QuantSearches: 1, QuantDocs: int64(st.QuantDocs), QuantReranks: int64(st.Reranked),
	}) || st.ExactDocs != m {
		t.Fatalf("counters %+v after stats %+v", tot, st)
	}
}

// emptyCellQuantizer encodes a valid two-cell quantizer sidecar over m
// documents whose cell 0 holds every document and whose cell 1 is empty
// with pq as its centroid, so pq ranks cell 1 first. ivf.Train can leave
// such a cell ("empty cells keep their previous centroid") and ivf.Read
// accepts it.
func emptyCellQuantizer(pq []float64, m int) []byte {
	var dims []byte
	for _, v := range []int{len(pq), 2, m} { // dim, nlist, ndocs
		dims = binary.LittleEndian.AppendUint64(dims, uint64(v))
	}
	cent := make([]float64, 0, 2*len(pq))
	for _, sign := range []float64{-1, 1} {
		for _, v := range pq {
			cent = append(cent, sign*v)
		}
	}
	cells := make([]byte, m) // every document's cell is 0
	var buf bytes.Buffer
	w := blob.NewWriter(&buf, [blob.MagicLen]byte{'L', 'S', 'I', 'I', 'V', 'F'}, ivf.WireVersion, 3)
	w.Bytes("DIMS", dims)
	w.Floats("CENT", cent)
	w.Bytes("CELL", cells)
	if err := w.Close(); err != nil {
		panic(err) // a bytes.Buffer takes every write
	}
	return buf.Bytes()
}

// TestProbeSkipsEmptyCellOnEveryRoute: the cell a query ranks first holds
// no documents, so a one-cell probe spends its budget on the cell that
// does and answers like a probe of every cell, on the ANN route and on
// the composed route alike, whether the pooled candidate buffer has been
// used before or not (nil, which the int8 tier once read as "every
// document").
func TestProbeSkipsEmptyCellOnEveryRoute(t *testing.T) {
	seg, ix, query := tieredSegment(t)
	q := query(3)
	ann, err := ivf.Read(bytes.NewReader(emptyCellQuantizer(ix.ProjectSparse(q.Terms, q.Weights), seg.Len())))
	if err != nil {
		t.Fatal(err)
	}
	if seg, err = seg.WithAnn(ann); err != nil {
		t.Fatal(err)
	}
	segs := []*Segment{seg}
	m := seg.Len()
	for _, tc := range []struct {
		name string
		opts ProbeOptions
		want ProbeStats
	}{
		{"ann", ProbeOptions{NProbe: 1}, ProbeStats{Probed: 1, Cells: 1, Docs: m}},
		{"composed", ProbeOptions{NProbe: 1, Beta: 2}, ProbeStats{Probed: 1, Cells: 1, Docs: m, QuantSegs: 1, QuantDocs: m, Reranked: 20}},
	} {
		all, _ := Search(segs, q, 10, ProbeOptions{NProbe: 2, Beta: tc.opts.Beta})
		for _, scratch := range []string{"cold", "warm"} {
			searchPool = sync.Pool{New: searchPool.New}
			if scratch == "warm" {
				Search(segs, q, 10, tc.opts)
			}
			got, st := Search(segs, q, 10, tc.opts)
			if len(got) != 10 || st != tc.want {
				t.Fatalf("%s, %s scratch: %d results with stats %+v, want 10 with %+v", tc.name, scratch, len(got), st, tc.want)
			}
			sameMatches(t, got, all, tc.name+" one cell against every cell")
		}
	}
}
