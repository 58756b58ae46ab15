package scan

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/mat"
	"repro/internal/par"
	"repro/internal/race"
	"repro/internal/topk"
)

// testVecs is n random rank-dim rows in which every third row repeats an
// earlier one, so equal scores — and with them the doc-ascending
// tie-break — occur in every ranking.
func testVecs(n, dim int, seed int64) (*mat.Dense32, []float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	vecs, norms := mat.NewDense32(n, dim), make([]float64, n)
	for j := 0; j < n; j++ {
		row := vecs.Row(j)
		if j%3 == 2 {
			copy(row, vecs.Row(rng.Intn(j)))
		} else {
			for i := range row {
				row[i] = float32(rng.NormFloat64())
			}
		}
		norms[j] = mat.Norm(row)
	}
	pq := make([]float64, dim)
	for i := range pq {
		pq[i] = rng.NormFloat64()
	}
	return vecs, norms, pq
}

// naive is the reference: score every candidate, sort all of them, cut
// to keep.
func naive(vecs *mat.Dense32, norms, pq []float64, rows []int, ids []int, keep int) []topk.Match {
	qn := mat.Norm(pq)
	all := make([]topk.Match, 0, len(rows))
	for _, j := range rows {
		doc := j
		if ids != nil {
			doc = ids[j]
		}
		all = append(all, topk.Match{Doc: doc, Score: mat.DotNorm32(pq, vecs.Row(j), qn, norms[j])})
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].Score != all[b].Score {
			return all[a].Score > all[b].Score
		}
		return all[a].Doc < all[b].Doc
	})
	if keep > 0 && keep < len(all) {
		all = all[:keep]
	}
	return all
}

func sameMatches(t *testing.T, context string, got, want []topk.Match) {
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

// TestAppendTopMatchesNaiveSort drives the one selection loop (AppendTop,
// and Select into a caller's heap) and the one float scorer over both
// candidate-source forms against the naive reference: any keep, any
// chunking, any worker count, same bits.
func TestAppendTopMatchesNaiveSort(t *testing.T) {
	defer par.SetMaxProcs(par.SetMaxProcs(0))
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 7, 64, 257 + rng.Intn(500)} {
		vecs, norms, pq := testVecs(n, 6, int64(n))
		every, ids := make([]int, n), make([]int, n)
		for j := range every {
			every[j], ids[j] = j, 3*j+1
		}
		// A candidate list that skips rows and is not ascending.
		var list []int32
		var listed []int
		for _, j := range rng.Perm(n)[:(n+1)/2] {
			list, listed = append(list, int32(j)), append(listed, j)
		}
		for _, tc := range []struct {
			name   string
			src    Source
			stride int   // renumbers as 1 + stride·j when non-zero
			ids    []int // what that renumbering gives, for the reference
			rows   []int // what src names, for the reference
		}{
			{"rows", Rows(n), 0, nil, every},
			{"rows renumbered", Rows(n), 3, ids, every},
			{"list", List(list), 0, nil, listed},
			{"empty list", List(nil), 0, nil, nil},
		} {
			f := Float{Vecs: vecs, Norms: norms, PQ: pq, QN: mat.Norm(pq), Src: tc.src}
			if tc.stride != 0 {
				f.First, f.Stride = 1, tc.stride
			}
			cands := tc.src.Len()
			for _, keep := range []int{0, 1, 10, cands, cands + 5} {
				want := naive(vecs, norms, pq, tc.rows, tc.ids, keep)
				for _, grain := range []int{n + 1, (cands + 2) / 3, 1} { // one, three, many chunks
					for _, procs := range []int{1, 2, 4} {
						par.SetMaxProcs(procs)
						prefix := []topk.Match{{Doc: -1, Score: 9}}
						got := AppendTop(prefix, cands, keep, grain, f)
						context := fmt.Sprintf("n=%d %s keep=%d grain=%d procs=%d", n, tc.name, keep, grain, procs)
						if got[0] != prefix[0] {
							t.Fatalf("%s: destination prefix overwritten: %+v", context, got[0])
						}
						sameMatches(t, context, got[1:], want)

						// Select into a heap that already holds a match, as
						// segment.Search's merge heap does.
						if cands == 0 {
							continue
						}
						k := min(max(keep, 1), cands)
						var h topk.Heap
						h.Reset(k)
						h.Offer(topk.Match{Doc: -1, Score: 9})
						Select(&h, cands, k, grain, f)
						merged := append([]topk.Match{{Doc: -1, Score: 9}}, naive(vecs, norms, pq, tc.rows, tc.ids, k)...)
						sameMatches(t, context+" Select", h.AppendSorted(nil), merged[:k])
					}
				}
			}
		}
	}
}

// TestAppendTopSerialAllocatesNothing pins the serial path: no closure,
// no heap of its own — a destination with capacity is all it writes.
func TestAppendTopSerialAllocatesNothing(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	defer par.SetMaxProcs(par.SetMaxProcs(1))
	vecs, norms, pq := testVecs(300, 8, 1)
	f := Float{Vecs: vecs, Norms: norms, PQ: pq, QN: mat.Norm(pq), Src: Rows(300)}
	list := Float{Vecs: vecs, Norms: norms, PQ: pq, QN: mat.Norm(pq), Src: List([]int32{5, 9, 200, 17})}
	dst := make([]topk.Match, 0, 300)
	for name, run := range map[string]func(){
		"rows top 10": func() { dst = f.AppendTop(dst[:0], 10) },
		"rows all":    func() { dst = f.AppendTop(dst[:0], 0) },
		"list":        func() { dst = list.AppendTop(dst[:0], 2) },
	} {
		if got := testing.AllocsPerRun(100, run); got != 0 {
			t.Errorf("%s: %v allocs/op, want 0", name, got)
		}
	}
}
