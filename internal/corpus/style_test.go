package corpus

import (
	"math"
	"math/rand"
	"testing"
)

func TestIdentityStyle(t *testing.T) {
	s := IdentityStyle(3)
	if !s.IsIdentity() {
		t.Fatal("IdentityStyle not identity")
	}
	p := []float64{0.2, 0.3, 0.5}
	out := apply(s, p)
	for i := range p {
		if out[i] != p[i] {
			t.Fatalf("identity Apply changed distribution: %v", out)
		}
	}
	if s.RewriteTerm(1, 0.7) != 1 {
		t.Fatal("identity RewriteTerm changed term")
	}
}

func TestRewriteTermWalksAscendingTargets(t *testing.T) {
	// A row is a Go map; the walk RewriteTerm makes must not follow its
	// iteration order, or one seeded draw picks different targets on
	// different runs.
	rows := map[int]map[int]float64{0: {4: 0.25, 1: 0.25, 3: 0.25, 2: 0.25}}
	for build := 0; build < 100; build++ {
		s, err := NewStyle(5, rows)
		if err != nil {
			t.Fatal(err)
		}
		for i, want := range []int{1, 2, 3, 4} {
			if got := s.RewriteTerm(0, 0.25*float64(i)+0.1); got != want {
				t.Fatalf("build %d: draw %v rewrote to %d, want %d", build, 0.25*float64(i)+0.1, got, want)
			}
		}
	}
}

func TestNewStyleValidation(t *testing.T) {
	cases := []map[int]map[int]float64{
		{5: {0: 1}},            // source out of range
		{0: {5: 1}},            // target out of range
		{0: {1: 0.5}},          // row does not sum to 1
		{0: {1: -0.5, 0: 1.5}}, // negative probability
		{0: {1: math.NaN()}},   // NaN
	}
	for i, rows := range cases {
		if _, err := NewStyle(3, rows); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
	if _, err := NewStyle(3, map[int]map[int]float64{0: {1: 0.25, 2: 0.75}}); err != nil {
		t.Fatalf("valid style rejected: %v", err)
	}
}

func TestStyleApplyPreservesMass(t *testing.T) {
	// A "formal" style: car(0) → automobile(1)/vehicle(2), per the paper's
	// example.
	s, err := NewStyle(4, map[int]map[int]float64{
		0: {1: 0.6, 2: 0.35, 0: 0.05},
	})
	if err != nil {
		t.Fatal(err)
	}
	p := []float64{0.5, 0.1, 0.1, 0.3}
	out := apply(s, p)
	var sum float64
	for _, v := range out {
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("Apply broke stochasticity: sum = %v", sum)
	}
	// Term 0's mass 0.5 redistributes 0.6→1, 0.35→2, 0.05 stays.
	if math.Abs(out[0]-0.025) > 1e-12 || math.Abs(out[1]-(0.1+0.3)) > 1e-12 {
		t.Fatalf("Apply = %v", out)
	}
	if math.Abs(out[3]-0.3) > 1e-12 {
		t.Fatal("untouched term changed")
	}
}

func TestSynonymStyle(t *testing.T) {
	s, err := SynonymStyle(4, map[int]int{1: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Term 1 splits 50/50 between 1 and 3.
	n1, n3 := 0, 0
	for i := 0; i < 1000; i++ {
		switch s.RewriteTerm(1, float64(i)/1000.0) {
		case 1:
			n1++
		case 3:
			n3++
		default:
			t.Fatal("synonym rewrote to unrelated term")
		}
	}
	if n1 != 500 || n3 != 500 {
		t.Fatalf("split %d/%d, want 500/500", n1, n3)
	}
	if s.RewriteTerm(0, 0.5) != 0 {
		t.Fatal("non-pair term rewritten")
	}
	if _, err := SynonymStyle(4, map[int]int{2: 2}); err == nil {
		t.Fatal("self-pair should error")
	}
}

func TestMixStyles(t *testing.T) {
	id := IdentityStyle(3)
	swap, err := NewStyle(3, map[int]map[int]float64{0: {1: 1}})
	if err != nil {
		t.Fatal(err)
	}
	mixed, err := MixStyles([]*Style{id, swap}, []float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	p := []float64{1, 0, 0}
	out := apply(mixed, p)
	if math.Abs(out[0]-0.5) > 1e-12 || math.Abs(out[1]-0.5) > 1e-12 {
		t.Fatalf("mixed Apply = %v", out)
	}
}

func TestMixStylesErrors(t *testing.T) {
	id3, id4 := IdentityStyle(3), IdentityStyle(4)
	if _, err := MixStyles(nil, nil); err == nil {
		t.Error("expected error for empty mix")
	}
	if _, err := MixStyles([]*Style{id3}, []float64{1, 2}); err == nil {
		t.Error("expected error for weight mismatch")
	}
	if _, err := MixStyles([]*Style{id3, id4}, []float64{1, 1}); err == nil {
		t.Error("expected error for universe mismatch")
	}
	if _, err := MixStyles([]*Style{id3}, []float64{0}); err == nil {
		t.Error("expected error for zero weights")
	}
}

// Property: Apply always preserves total probability mass and
// non-negativity for random styles and distributions.
func TestStyleStochasticityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(10)
		rows := map[int]map[int]float64{}
		for src := 0; src < n; src++ {
			if rng.Float64() < 0.5 {
				continue
			}
			k := 1 + rng.Intn(3)
			w := Dirichlet(1, k, rng)
			row := map[int]float64{}
			for i := 0; i < k; i++ {
				row[rng.Intn(n)] += w[i]
			}
			rows[src] = row
		}
		s, err := NewStyle(n, rows)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		p := Dirichlet(0.5, n, rng)
		out := apply(s, p)
		var sum float64
		for _, v := range out {
			if v < 0 {
				t.Fatalf("trial %d: negative mass %v", trial, v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("trial %d: mass %v after style", trial, sum)
		}
	}
}

// apply is the style's action on a term distribution: out = pᵀS.
func apply(s *Style, p []float64) []float64 {
	out := make([]float64, s.n)
	for i, pi := range p {
		row, ok := s.rows[i]
		if !ok {
			out[i] += pi
			continue
		}
		for t, tgt := range row.targets {
			out[tgt] += pi * row.probs[t]
		}
	}
	return out
}
