package ivf

import (
	"math"

	"repro/internal/mat"
	"repro/internal/par"
)

// boundCells is how many cells a document keeps bounds of its own for:
// its owner and boundCells−1 runners-up. Every other cell shares one
// bound. On the paper's corpus model a document only ever hesitates
// between its topic's cell and a few neighbours, so more would only grow
// the per-document state.
const (
	boundCells = 4
	runners    = boundCells - 1
)

// The bounds' error analysis (DESIGN.md §11) assumes no product or
// quotient overflows or underflows harmfully: document and centroid norms
// inside [safeMin, safeMax], or exactly zero. A document outside is
// rescanned on every pass; a centroid outside rescans every document that
// pass.
const (
	safeMin = 0x1p-200
	safeMax = 0x1p200
)

func safeNorm(n float64) bool { return n == 0 || n >= safeMin && n <= safeMax }

// bounds is what the Lloyd passes keep for each document j, so that a
// pass scores only the cells j could still move to (the bounds of Elkan's
// and Hamerly's k-means, for the clamped cosine mat.DotNorm32 computes):
//
//   - own[j], the cell that owns j, and lo[j] ≤ its score;
//   - cand[j·runners+k], up to runners other cells (−1 = no cell), each
//     with up[j·runners+k] ≥ its score;
//   - rest[j] ≥ the score of every cell that is neither;
//   - rho[j] = ‖row j‖ / norms[j], rounded up: how far j's score can move
//     per unit a centroid's direction moves.
//
// Every bound holds for the score as DotNorm32 rounds it. A NaN or ±Inf
// bound fails every test it meets, so the score it stands for is computed
// again. Memory is O(m·boundCells), not O(m·nlist).
type bounds struct {
	nlist int
	slack float64 // per-pass allowance for rounding, in units of rho
	own   []int32
	lo    []float64
	cand  []int32
	up    []float64
	rest  []float64
	rho   []float64
}

// newBounds returns empty bounds for the rows of vecs: every document
// ownerless, no bound known.
func newBounds(vecs *mat.Dense32, norms []float64, nlist int) *bounds {
	m, dim := vecs.Dims()
	b := &bounds{
		nlist: nlist,
		// Twice the rounding a pass can add to a score's bound: the dot and
		// the quotient at the old and at the new centroid, and the drift.
		slack: float64(8*dim+64) * 0x1p-53,
		own:   make([]int32, m),
		lo:    make([]float64, m),
		cand:  make([]int32, m*runners),
		up:    make([]float64, m*runners),
		rest:  make([]float64, m),
		rho:   make([]float64, m),
	}
	par.For(m, par.GrainFor(2*dim+1), func(lo, hi int) {
		for j := lo; j < hi; j++ {
			b.reset(j)
			nj := norms[j]
			if nj == 0 {
				continue // DotNorm32 scores j 0 against every centroid
			}
			b.rho[j] = math.Inf(1)
			if nj >= safeMin && nj <= safeMax {
				// Squares of float32 values neither overflow nor underflow
				// in float64, so the norm needs no scaling pass.
				var ss float64
				for _, v := range vecs.Row(j) {
					ss += float64(v) * float64(v)
				}
				if r := math.Sqrt(ss) / nj * (1 + b.slack); r <= math.MaxFloat64 {
					b.rho[j] = r
				}
			}
		}
	})
	return b
}

// reset forgets document j's owner and bounds.
func (b *bounds) reset(j int) {
	b.own[j], b.lo[j], b.rest[j] = -1, math.Inf(-1), math.Inf(-1)
	for k := j * runners; k < (j+1)*runners; k++ {
		b.cand[k], b.up[k] = -1, math.Inf(-1)
	}
}

// offer records s, cell c's score for document j. Offered every cell in
// ascending order after reset and then settled, j is owned by the cell a
// full scan picks (the first of the highest scores; NaN never wins), and
// its bounds are exact scores: the best runners-up, then the best of the
// rest.
func (b *bounds) offer(j int, c int32, s float64) {
	if s > b.lo[j] {
		c, s, b.own[j], b.lo[j] = b.own[j], b.lo[j], c, s
		if c < 0 {
			return
		}
	}
	if s != s {
		s = math.Inf(1) // no bound: this cell is scored again every pass
	}
	cand, up := b.cand[j*runners:(j+1)*runners], b.up[j*runners:(j+1)*runners]
	w := 0
	for k := 1; k < runners; k++ {
		if up[k] < up[w] {
			w = k
		}
	}
	if s > up[w] {
		c, s, cand[w], up[w] = cand[w], up[w], c, s
	}
	if s > b.rest[j] {
		b.rest[j] = s
	}
}

// settle gives every document no cell won (all its scores NaN) to cell 0,
// as a full scan does.
func (b *bounds) settle(lo, hi int) {
	for j := lo; j < hi; j++ {
		if b.own[j] < 0 {
			b.own[j] = 0
		}
	}
}

// rescan scores document j against every centroid.
func (b *bounds) rescan(j int, row []float32, nj float64, cent *mat.Dense, cnorms []float64) {
	b.reset(j)
	for c := 0; c < b.nlist; c++ {
		b.offer(j, int32(c), mat.DotNorm32(cent.Row(c), row, cnorms[c], nj))
	}
	b.settle(j, j+1)
}

// pass moves every document to its highest-scoring centroid in cent (ties
// to the lower cell), the cell a full scan would pick, after the centroids
// moved from prev. It returns how many documents changed cell and how
// many scores it computed. Writes are disjoint per document, so the
// result is the same for any worker count.
//
// Each bound first moves by its cell's drift times rho[j]. A document
// whose owner's lower bound beats every upper bound stays without a
// score. Otherwise the owner is scored; if rest reaches that score every
// cell is; if not, only the runners-up whose bound reaches the best score
// so far.
func (b *bounds) pass(vecs *mat.Dense32, norms []float64, cent *mat.Dense, cnorms []float64, prev *mat.Dense, prevNorms []float64) (changed, dots int) {
	move := b.moves(cent, cnorms, prev, prevNorms)
	var moveMax float64
	for _, mv := range move {
		moveMax = math.Max(moveMax, mv)
	}
	m, dim := vecs.Dims()
	type count struct{ changed, dots int }
	parts := par.MapChunks(m, par.GrainFor(2*dim*boundCells), func(lo, hi int) count {
		var n count
		for j := lo; j < hi; j++ {
			rho, a := b.rho[j], b.own[j]
			low := b.lo[j] - move[a]*rho
			rest := b.rest[j] + moveMax*rho
			b.rest[j] = rest
			cand, up := b.cand[j*runners:(j+1)*runners], b.up[j*runners:(j+1)*runners]
			stay := rest < low
			for k, c := range cand {
				if c >= 0 {
					up[k] += move[c] * rho
					stay = stay && up[k] < low
				}
			}
			if stay {
				b.lo[j] = low
				continue
			}
			row, nj := vecs.Row(j), norms[j]
			s := mat.DotNorm32(cent.Row(int(a)), row, cnorms[a], nj)
			n.dots++
			if !(rest < s) {
				b.rescan(j, row, nj, cent, cnorms)
				n.dots += b.nlist
				if b.own[j] != a {
					n.changed++
				}
				continue
			}
			best, bs, bk := a, s, -1
			for k, c := range cand {
				if c < 0 || up[k] < bs {
					continue
				}
				v := mat.DotNorm32(cent.Row(int(c)), row, cnorms[c], nj)
				n.dots++
				up[k] = v
				if v > bs || v == bs && c < best {
					best, bs, bk = c, v, k
				}
			}
			if bk >= 0 {
				cand[bk], up[bk], b.own[j] = a, s, best
				n.changed++
			}
			b.lo[j] = bs
		}
		return n
	})
	for _, n := range parts {
		changed += n.changed
		dots += n.dots
	}
	return changed, dots
}

// moves returns how far each cell's bounds move this pass: the distance
// between its old and new unit directions (a zero centroid's direction is
// the zero vector, since DotNorm32 scores it 0) plus the rounding slack,
// or +Inf for a centroid outside the safe range.
func (b *bounds) moves(cent *mat.Dense, cnorms []float64, prev *mat.Dense, prevNorms []float64) []float64 {
	move := make([]float64, b.nlist)
	diff := make([]float64, cent.Cols())
	for c := range move {
		cn, pn := cnorms[c], prevNorms[c]
		if !safeNorm(cn) || !safeNorm(pn) {
			move[c] = math.Inf(1)
			continue
		}
		old := prev.Row(c)
		for d, v := range cent.Row(c) {
			var x, y float64
			if cn != 0 {
				x = v / cn
			}
			if pn != 0 {
				y = old[d] / pn
			}
			diff[d] = x - y
		}
		move[c] = mat.Norm(diff) + 2*b.slack
	}
	return move
}
