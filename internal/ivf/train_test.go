package ivf

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/mat"
	"repro/internal/par"
)

// lloydReference is training as it was before the bounds: k-means++
// seeding, then Lloyd passes that score every document against every
// centroid. It returns the index, the passes run after seeding, and how
// many exact score ties its scans broke (to the lower cell).
func lloydReference(vecs *mat.Dense32, norms []float64, opts TrainOptions) (*Index, int, int) {
	m, dim := vecs.Dims()
	nlist := opts.NList
	if nlist > m {
		nlist = m
	}
	iters := opts.Iters
	if iters <= 0 {
		iters = DefaultIters
	}

	rng := rand.New(rand.NewSource(opts.Seed))
	cent := seedCentroidsReference(vecs, norms, nlist, rng)
	cnorms := make([]float64, nlist)
	for c := 0; c < nlist; c++ {
		cnorms[c] = mat.Norm(cent.Row(c))
	}

	assign := make([]int32, m)
	for j := range assign {
		assign[j] = -1
	}
	_, ties := assignAllReference(vecs, norms, cent, cnorms, assign)
	passes := 0
	for it := 0; it < iters; it++ {
		starts, docs := buildPostings(assign, nlist)
		recenter(vecs, norms, cent, starts, docs)
		for c := 0; c < nlist; c++ {
			cnorms[c] = mat.Norm(cent.Row(c))
		}
		changed, t := assignAllReference(vecs, norms, cent, cnorms, assign)
		passes++
		ties += t
		if changed == 0 {
			break
		}
	}
	starts, docs := buildPostings(assign, nlist)
	return &Index{
		dim:       dim,
		nlist:     nlist,
		centroids: cent,
		cnorms:    cnorms,
		cellStart: starts,
		docs:      docs,
	}, passes, ties
}

// seedCentroidsReference is k-means++ seeding without the fused first
// assignment.
func seedCentroidsReference(vecs *mat.Dense32, norms []float64, nlist int, rng *rand.Rand) *mat.Dense {
	m, dim := vecs.Dims()
	cent := mat.NewDense(nlist, dim)
	dist := make([]float64, m)
	for j := range dist {
		dist[j] = math.Inf(1)
	}
	grain := par.GrainFor(2*dim + 1)
	lower := func(c int) {
		crow := cent.Row(c)
		cn := mat.Norm(crow)
		par.For(m, grain, func(lo, hi int) {
			for j := lo; j < hi; j++ {
				if d := 1 - mat.DotNorm32(crow, vecs.Row(j), cn, norms[j]); d < dist[j] {
					dist[j] = d
				}
			}
		})
	}
	mat.Convert(cent.Row(0), vecs.Row(rng.Intn(m)))
	lower(0)
	for c := 1; c < nlist; c++ {
		var total float64
		for _, d := range dist {
			total += d
		}
		pick := -1
		if total > 0 {
			r := rng.Float64() * total
			var cum float64
			for j, d := range dist {
				cum += d
				if cum > r {
					pick = j
					break
				}
			}
			if pick < 0 {
				for j := m - 1; j >= 0; j-- {
					if dist[j] > 0 {
						pick = j
						break
					}
				}
			}
		}
		if pick < 0 {
			pick = rng.Intn(m)
		}
		mat.Convert(cent.Row(c), vecs.Row(pick))
		lower(c)
	}
	return cent
}

// assignAllReference moves every document to its highest-cosine centroid
// (ties to the lower cell), returning the changes and the ties met.
func assignAllReference(vecs *mat.Dense32, norms []float64, cent *mat.Dense, cnorms []float64, assign []int32) (int, int) {
	m, _ := vecs.Dims()
	nlist := cent.Rows()
	grain := par.GrainFor(2*cent.Rows()*cent.Cols() + 1)
	counts := par.MapChunks(m, grain, func(lo, hi int) [2]int {
		var n [2]int
		for j := lo; j < hi; j++ {
			row := vecs.Row(j)
			nj := norms[j]
			best := int32(0)
			bestScore := math.Inf(-1)
			for c := 0; c < nlist; c++ {
				s := mat.DotNorm32(cent.Row(c), row, cnorms[c], nj)
				if s > bestScore {
					bestScore = s
					best = int32(c)
				} else if s == bestScore {
					n[1]++
				}
			}
			if assign[j] != best {
				assign[j] = best
				n[0]++
			}
		}
		return n
	})
	var total [2]int
	for _, n := range counts {
		total[0] += n[0]
		total[1] += n[1]
	}
	return total[0], total[1]
}

// trainCorpus is one input of the reference test: stored rows and the
// norms a caller hands Train32 with them.
type trainCorpus struct {
	name   string
	vecs   *mat.Dense32
	norms  []float64
	nlists []int
}

func storedNorms(vecs *mat.Dense32) []float64 {
	norms := make([]float64, vecs.Rows())
	for j := range norms {
		norms[j] = mat.Norm(vecs.Row(j))
	}
	return norms
}

// trainCorpora covers what the bounds must survive: topic clusters and
// structureless noise; duplicated lattice rows, whose scores tie exactly;
// zero rows; antipodal pairs, whose cell means cancel to a zero centroid;
// norms that are not the stored rows' (scaled, so raw cosines pass ±1 and
// clamp, or taken from the float64 vectors before rounding); and one
// corpus large enough that every pass runs on several chunks.
func trainCorpora(t *testing.T) []trainCorpus {
	rng := rand.New(rand.NewSource(77))
	const m, dim = 150, 8
	all := func(m int) []int { return []int{1, 2, 7, 64, m, m + 9} }
	var out []trainCorpus

	clustered, norms := clusteredVecs(t, m, dim, 6, 0.3, 31)
	out = append(out, trainCorpus{"clustered", mat.Narrow(clustered), norms, all(m)})

	uniform := mat.NewDense32(m, dim)
	for i := range uniform.RawData() {
		uniform.RawData()[i] = float32(rng.NormFloat64())
	}
	out = append(out, trainCorpus{"uniform", uniform, storedNorms(uniform), all(m)})

	lattice := mat.NewDense32(m, 4)
	for i := range lattice.RawData() {
		lattice.RawData()[i] = float32(rng.Intn(3) - 1)
	}
	out = append(out, trainCorpus{"lattice-ties", lattice, storedNorms(lattice), all(m)})

	zeroed := mat.NewDense32Data(m, dim, slices.Clone(mat.Narrow(clustered).RawData()))
	for j := 0; j < m; j += 3 {
		clear(zeroed.Row(j))
	}
	out = append(out, trainCorpus{"zero-rows", zeroed, storedNorms(zeroed), all(m)})

	antipodal := mat.NewDense32(m, dim)
	for j := 0; j < m; j += 2 {
		for d, row := 0, antipodal.Row(j); d < dim; d++ {
			row[d] = float32(rng.NormFloat64())
			antipodal.Row(j + 1)[d] = -row[d]
		}
	}
	out = append(out, trainCorpus{"antipodal", antipodal, storedNorms(antipodal), all(m)})

	scaled := append([]float64(nil), norms...)
	for j := range scaled {
		scaled[j] *= math.Exp2(4*rng.Float64() - 2)
	}
	out = append(out, trainCorpus{"scaled-norms", mat.Narrow(clustered), scaled, all(m)})

	wide := mat.NewDense(m, dim)
	for i := range wide.RawData() {
		wide.RawData()[i] = rng.NormFloat64() + 2
	}
	wideNorms := make([]float64, m)
	for j := range wideNorms {
		wideNorms[j] = mat.Norm(wide.Row(j))
	}
	out = append(out, trainCorpus{"float64-norms", mat.Narrow(wide), wideNorms, all(m)})

	big, bigNorms := clusteredVecs(t, 8200, 16, 20, 0.35, 32)
	out = append(out, trainCorpus{"large", mat.Narrow(big), bigNorms, []int{2, 7, 64}})
	return out
}

// TestTrainMatchesLloydReference holds Train32 to the full-scan Lloyd
// loop: the same encoded bytes (centroids and postings) and the same
// number of passes, for every corpus, seed, nlist and worker count.
func TestTrainMatchesLloydReference(t *testing.T) {
	var ties, zeroCentroids, saved int
	for _, tc := range trainCorpora(t) {
		m, _ := tc.vecs.Dims()
		for _, nlist := range tc.nlists {
			for _, seed := range []int64{1, 2, 3} {
				if tc.name == "large" && seed > 1 {
					continue
				}
				opts := TrainOptions{NList: nlist, Seed: seed}
				want, wantPasses, refTies := lloydReference(tc.vecs, tc.norms, opts)
				ties += refTies
				for _, cn := range want.cnorms {
					if cn == 0 {
						zeroCentroids++
					}
				}
				for _, procs := range []int{1, 2, 8} {
					name := fmt.Sprintf("%s/nlist=%d/seed=%d/procs=%d", tc.name, nlist, seed, procs)
					prev := par.SetMaxProcs(procs)
					got, st, err := train(tc.vecs, tc.norms, opts)
					par.SetMaxProcs(prev)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if !bytes.Equal(got.Encode(), want.Encode()) {
						t.Fatalf("%s: encoding differs from the full Lloyd loop's", name)
					}
					if st.passes != wantPasses {
						t.Fatalf("%s: %d passes, the full Lloyd loop ran %d", name, st.passes, wantPasses)
					}
					if st.dots < st.passes*m*want.nlist {
						saved++
					}
				}
			}
		}
	}
	// The corpora must reach the cases they exist for.
	if ties == 0 || zeroCentroids == 0 || saved == 0 {
		t.Fatalf("coverage: %d exact ties, %d zero centroids, %d runs that skipped scores; want each > 0", ties, zeroCentroids, saved)
	}
}

// TestBoundsPassMatchesFullScan moves centroids in ways Lloyd's updates
// rarely do — jumps to random directions, to zero and back, out of the
// safe norm range and back, next to unmoved and slightly nudged cells —
// and checks after every pass that each document sits where a full scan
// puts it.
func TestBoundsPassMatchesFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	randomize := func(row []float64) {
		for d := range row {
			row[d] = rng.NormFloat64()
		}
	}
	for trial := 0; trial < 300; trial++ {
		m, dim, nlist := 60, 2+rng.Intn(6), 1+rng.Intn(12)
		vecs := mat.NewDense32(m, dim)
		for i := range vecs.RawData() {
			vecs.RawData()[i] = float32(rng.NormFloat64())
		}
		clear(vecs.Row(0))
		norms := storedNorms(vecs)
		if trial%2 == 1 {
			for j := range norms {
				norms[j] *= math.Exp2(2*rng.Float64() - 1)
			}
			norms[1] = 0x1p-300 // outside the bounds' safe range
		}
		cent, prev := mat.NewDense(nlist, dim), mat.NewDense(nlist, dim)
		cnorms, prevNorms := make([]float64, nlist), make([]float64, nlist)
		randomize(cent.RawData())
		for c := range cnorms {
			cnorms[c] = mat.Norm(cent.Row(c))
		}
		b := newBounds(vecs, norms, nlist)
		for j := 0; j < m; j++ {
			b.rescan(j, vecs.Row(j), norms[j], cent, cnorms)
		}
		want := slices.Clone(b.own)
		for step := 0; step < 6; step++ {
			copy(prev.RawData(), cent.RawData())
			copy(prevNorms, cnorms)
			for c := 0; c < nlist; c++ {
				switch row := cent.Row(c); rng.Intn(5) {
				case 0: // unmoved
				case 1:
					for d := range row {
						row[d] += 0.05 * rng.NormFloat64()
					}
				case 2:
					randomize(row)
				case 3:
					clear(row)
				default: // outside the bounds' safe range, or back inside
					for d := range row {
						row[d] *= 0x1p300
					}
					if cnorms[c] > safeMax {
						randomize(row)
					}
				}
				cnorms[c] = mat.Norm(cent.Row(c))
			}
			b.pass(vecs, norms, cent, cnorms, prev, prevNorms)
			assignAllReference(vecs, norms, cent, cnorms, want)
			if !slices.Equal(b.own, want) {
				t.Fatalf("trial %d pass %d: cells %v, a full scan picks %v", trial, step, b.own, want)
			}
		}
	}
}
