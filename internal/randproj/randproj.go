// Package randproj implements Section 5 of the paper: random projection as
// a preprocessing step that speeds up LSI. A term-space vector in Rⁿ is
// projected to Rˡ (l = O(log n / ε²)) by a random matrix; by the
// Johnson–Lindenstrauss lemma (Lemma 2) all pairwise distances and inner
// products are preserved to within 1±ε with high probability. Running
// rank-2k LSI on the projected matrix B = √(n/l)·Rᵀ·A then recovers almost
// as much of A as direct rank-k LSI (Theorem 5):
//
//	‖A − B₂ₖ‖²_F ≤ ‖A − Aₖ‖²_F + 2ε‖A‖²_F
//
// at cost O(ml(l+c)) instead of O(mnc).
package randproj

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/mat"
	"repro/internal/sparse"
	"repro/internal/stats"
)

// Kind selects the family of random projection matrices.
type Kind int

const (
	// Orthonormal uses a random column-orthonormal n×l matrix R (QR of a
	// Gaussian matrix) with scaling √(n/l) — exactly the construction in
	// the paper's Section 5.
	Orthonormal Kind = iota
	// Gaussian uses i.i.d. N(0,1) entries with scaling 1/√l; for l ≪ n the
	// columns are nearly orthonormal and JL holds with the same bounds.
	Gaussian
	// Sign uses i.i.d. ±1 entries with scaling 1/√l (Achlioptas'
	// database-friendly projection) — an extension beyond the paper,
	// included as an ablation.
	Sign
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case Orthonormal:
		return "orthonormal"
	case Gaussian:
		return "gaussian"
	case Sign:
		return "sign"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Projection is a sampled random projection from Rⁿ to Rˡ.
type Projection struct {
	r     *mat.Dense // n×l
	scale float64
}

// New samples a projection from n dimensions down to l. It returns an
// error if l < 1 or l > n.
func New(n, l int, kind Kind, rng *rand.Rand) (*Projection, error) {
	if l < 1 || l > n {
		return nil, fmt.Errorf("randproj: target dimension l=%d out of [1,%d]", l, n)
	}
	r := mat.NewDense(n, l)
	data := r.RawData()
	switch kind {
	case Orthonormal, Gaussian:
		for i := range data {
			data[i] = rng.NormFloat64()
		}
	case Sign:
		for i := range data {
			if rng.Intn(2) == 0 {
				data[i] = 1
			} else {
				data[i] = -1
			}
		}
	default:
		return nil, fmt.Errorf("randproj: unknown kind %d", int(kind))
	}
	var scale float64
	switch kind {
	case Orthonormal:
		q, _ := mat.QR(r)
		r = q
		scale = math.Sqrt(float64(n) / float64(l))
	case Gaussian, Sign:
		scale = 1 / math.Sqrt(float64(l))
	}
	return &Projection{r: r, scale: scale}, nil
}

// Apply projects a single vector: scale·Rᵀ·x.
func (p *Projection) Apply(x []float64) []float64 {
	out := mat.MulTVec(p.r, x)
	mat.ScaleVec(p.scale, out)
	return out
}

// ApplySparse projects every column of a sparse matrix, producing the l×m
// dense matrix B = scale·Rᵀ·A. Cost is O(nnz(A)·l) — the O(mcl) term of the
// paper's running-time analysis.
func (p *Projection) ApplySparse(a *sparse.CSR) *mat.Dense {
	n, l := p.r.Dims()
	ar, m := a.Dims()
	if ar != n {
		panic(fmt.Sprintf("randproj: matrix has %d rows, projection expects %d", ar, n))
	}
	// B = scale · (Aᵀ·R)ᵀ. TMulDense streams over the nonzeros of A once.
	bt := a.TMulDense(p.r) // m×l
	b := mat.NewDense(l, m)
	for i := 0; i < m; i++ {
		row := bt.Row(i)
		for j := 0; j < l; j++ {
			b.Set(j, i, row[j]*p.scale)
		}
	}
	return b
}

// ApplyDense projects every column of a dense matrix.
func (p *Projection) ApplyDense(a *mat.Dense) *mat.Dense {
	n, _ := p.r.Dims()
	ar, _ := a.Dims()
	if ar != n {
		panic(fmt.Sprintf("randproj: matrix has %d rows, projection expects %d", ar, n))
	}
	b := mat.MulT(p.r, a)
	b.Scale(p.scale)
	return b
}

// JLDim returns the paper's target dimension l = ⌈c·ln(n)/ε²⌉ for constant
// c (Lemma 3 uses l ≥ c·log n/ε²; c around 4 suffices for the distance
// bounds in practice).
func JLDim(n int, eps, c float64) int {
	if n < 2 {
		return 1
	}
	l := int(math.Ceil(c * math.Log(float64(n)) / (eps * eps)))
	if l < 1 {
		l = 1
	}
	return l
}

// DistortionReport summarizes how well a projection preserved geometry over
// a point set, in the terms of Lemma 2 and its corollaries.
type DistortionReport struct {
	// DistanceRatio summarizes ‖x′ᵢ−x′ⱼ‖²/‖xᵢ−xⱼ‖² over all pairs with
	// nonzero original distance; JL predicts concentration in [1−ε, 1+ε].
	DistanceRatio stats.Summary
	// NormRatio summarizes ‖x′ᵢ‖²/‖xᵢ‖² over all points with nonzero norm.
	NormRatio stats.Summary
	// InnerProductErr summarizes |x′ᵢ·x′ⱼ − xᵢ·xⱼ| over all pairs, after
	// scaling all points to max norm 1 (the paper's "if the vᵢ's are all of
	// length at most 1, any inner product changes by at most 2ε").
	InnerProductErr stats.Summary
}

// MeasureDistortion projects every row of points (each row one vector) and
// reports distance, norm, and inner-product distortion statistics.
func MeasureDistortion(points *mat.Dense, p *Projection) DistortionReport {
	m, _ := points.Dims()
	proj := make([][]float64, m)
	for i := 0; i < m; i++ {
		proj[i] = p.Apply(points.Row(i))
	}
	// Scale factor so original points have max norm 1 for the inner-product
	// bound.
	var maxNorm float64
	for i := 0; i < m; i++ {
		if nv := mat.Norm(points.Row(i)); nv > maxNorm {
			maxNorm = nv
		}
	}
	if maxNorm == 0 {
		maxNorm = 1
	}
	var dratios, nratios, iperrs []float64
	for i := 0; i < m; i++ {
		oi := points.Row(i)
		if n2 := mat.Dot(oi, oi); n2 > 0 {
			nratios = append(nratios, mat.Dot(proj[i], proj[i])/n2)
		}
		for j := i + 1; j < m; j++ {
			oj := points.Row(j)
			od := mat.Dist(oi, oj)
			if od > 0 {
				pd := mat.Dist(proj[i], proj[j])
				dratios = append(dratios, (pd*pd)/(od*od))
			}
			ipOrig := mat.Dot(oi, oj) / (maxNorm * maxNorm)
			ipProj := mat.Dot(proj[i], proj[j]) / (maxNorm * maxNorm)
			iperrs = append(iperrs, math.Abs(ipProj-ipOrig))
		}
	}
	return DistortionReport{
		DistanceRatio:   stats.Summarize(dratios),
		NormRatio:       stats.Summarize(nratios),
		InnerProductErr: stats.Summarize(iperrs),
	}
}
