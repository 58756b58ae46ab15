package graphmodel

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/mat"
)

func TestGraphBasics(t *testing.T) {
	g := NewGraph(4)
	g.SetWeight(0, 1, 2)
	g.AddWeight(0, 1, 1)
	g.SetWeight(2, 3, 0.5)
	if g.Weight(0, 1) != 3 || g.Weight(1, 0) != 3 {
		t.Fatal("weights not symmetric")
	}
	if g.Degree(0) != 3 || g.Degree(3) != 0.5 {
		t.Fatalf("degrees %v %v", g.Degree(0), g.Degree(3))
	}
}

func TestGraphPanics(t *testing.T) {
	g := NewGraph(3)
	for i, f := range []func(){
		func() { NewGraph(0) },
		func() { g.SetWeight(1, 1, 1) },
		func() { g.SetWeight(0, 1, -1) },
		func() { g.CutConductance([]bool{true}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

func TestCutConductanceKnown(t *testing.T) {
	// Two triangles joined by one edge of weight 0.1.
	g := NewGraph(6)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}} {
		g.SetWeight(e[0], e[1], 1)
	}
	g.SetWeight(2, 3, 0.1)
	cut := []bool{true, true, true, false, false, false}
	got := g.CutConductance(cut)
	if math.Abs(got-0.1/3) > 1e-12 {
		t.Fatalf("conductance %v, want %v", got, 0.1/3)
	}
	// Trivial cuts are +Inf.
	if !math.IsInf(g.CutConductance(make([]bool, 6)), 1) {
		t.Fatal("empty cut should be +Inf")
	}
	all := []bool{true, true, true, true, true, true}
	if !math.IsInf(g.CutConductance(all), 1) {
		t.Fatal("full cut should be +Inf")
	}
}

func TestSweepFindsPlantedCut(t *testing.T) {
	// The sweep should find (approximately) the weak cut between the two
	// triangles.
	g := NewGraph(6)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}} {
		g.SetWeight(e[0], e[1], 1)
	}
	g.SetWeight(2, 3, 0.05)
	cond, cut, err := g.SweepConductance()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cond-0.05/3) > 1e-9 {
		t.Fatalf("sweep conductance %v, want %v", cond, 0.05/3)
	}
	// The cut must separate the triangles.
	if cut[0] != cut[1] || cut[1] != cut[2] || cut[3] != cut[4] || cut[4] != cut[5] || cut[0] == cut[3] {
		t.Fatalf("sweep cut %v does not separate the triangles", cut)
	}
}

func TestSpectralEmbeddingValidation(t *testing.T) {
	g := NewGraph(3)
	if _, _, err := SpectralEmbedding(g, 0); err == nil {
		t.Error("k=0 should error")
	}
	if _, _, err := SpectralEmbedding(g, 4); err == nil {
		t.Error("k>n should error")
	}
	// Zero-degree graph embeds at origin without NaN.
	emb, _, err := SpectralEmbedding(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 2; j++ {
			if math.IsNaN(emb.At(i, j)) {
				t.Fatal("NaN in embedding of empty graph")
			}
		}
	}
}

func TestPlantedValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(121))
	bad := []PlantedConfig{
		{Blocks: 0, BlockSize: 4, IntraProb: 0.5},
		{Blocks: 2, BlockSize: 1, IntraProb: 0.5},
		{Blocks: 2, BlockSize: 4, IntraProb: 0},
		{Blocks: 2, BlockSize: 4, IntraProb: 1.5},
		{Blocks: 2, BlockSize: 4, IntraProb: 0.5, Epsilon: 1},
		{Blocks: 2, BlockSize: 4, IntraProb: 0.5, Epsilon: -0.1},
	}
	for i, c := range bad {
		if _, _, err := Planted(c, rng); err == nil {
			t.Errorf("case %d: expected error for %+v", i, c)
		}
	}
}

func TestPlantedStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(122))
	cfg := PlantedConfig{Blocks: 3, BlockSize: 20, IntraProb: 0.8, Epsilon: 0.05}
	g, labels, err := Planted(cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 60 || len(labels) != 60 {
		t.Fatalf("graph size %d labels %d", g.N(), len(labels))
	}
	// Cross fraction should respect the ε budget (approximately: the budget
	// is allocated from the intra degree, so cross/total < ε).
	cf := CrossFraction(g, labels)
	if cf > cfg.Epsilon+1e-9 {
		t.Fatalf("cross fraction %v exceeds ε=%v", cf, cfg.Epsilon)
	}
	if cf == 0 {
		t.Fatal("no cross edges generated")
	}
	// Blocks are internally high-conductance.
	bc, err := BlockConductance(g, labels, 3)
	if err != nil {
		t.Fatal(err)
	}
	if bc < 1 {
		t.Fatalf("block conductance %v too low for IntraProb=0.8", bc)
	}
}

func TestTheorem6Discovery(t *testing.T) {
	// k high-conductance blocks + small ε cross weight: rank-k spectral
	// analysis must recover the blocks (Theorem 6).
	rng := rand.New(rand.NewSource(123))
	cfg := PlantedConfig{Blocks: 4, BlockSize: 25, IntraProb: 0.7, Epsilon: 0.05}
	g, truth, err := Planted(cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := DiscoverTopics(g, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	acc := ClusterAccuracy(pred, truth)
	if acc < 0.95 {
		t.Fatalf("Theorem 6 discovery accuracy %v < 0.95", acc)
	}
}

func TestDiscoveryDegradesGracefullyWithEpsilon(t *testing.T) {
	// Heavier cross weight should not crash and should still beat chance
	// for moderate ε.
	rng := rand.New(rand.NewSource(124))
	cfg := PlantedConfig{Blocks: 2, BlockSize: 30, IntraProb: 0.6, Epsilon: 0.3}
	g, truth, err := Planted(cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := DiscoverTopics(g, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	if acc := ClusterAccuracy(pred, truth); acc < 0.7 {
		t.Fatalf("accuracy %v at ε=0.3", acc)
	}
}

func TestKMeansSeparatedClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(125))
	pts := mat.NewDense(30, 2)
	truth := make([]int, 30)
	for i := 0; i < 30; i++ {
		c := i % 3
		truth[i] = c
		pts.Set(i, 0, float64(c)*10+rng.NormFloat64()*0.1)
		pts.Set(i, 1, rng.NormFloat64()*0.1)
	}
	labels, centroids := KMeans(pts, 3, 50, rng)
	if acc := ClusterAccuracy(labels, truth); acc != 1 {
		t.Fatalf("k-means accuracy %v on well-separated clusters", acc)
	}
	if centroids.Rows() != 3 || centroids.Cols() != 2 {
		t.Fatal("centroid shape wrong")
	}
}

func TestKMeansPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(126))
	pts := mat.NewDense(3, 2)
	for i, f := range []func(){
		func() { KMeans(pts, 0, 10, rng) },
		func() { KMeans(pts, 4, 10, rng) },
		func() { ClusterAccuracy([]int{0}, []int{0, 1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

func TestKMeansIdenticalPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(127))
	pts := mat.NewDense(5, 2) // all at origin
	labels, _ := KMeans(pts, 2, 10, rng)
	if len(labels) != 5 {
		t.Fatal("labels length wrong")
	}
}

func TestClusterAccuracyPermutationInvariance(t *testing.T) {
	truth := []int{0, 0, 1, 1, 2, 2}
	pred := []int{2, 2, 0, 0, 1, 1} // a relabeling of truth
	if acc := ClusterAccuracy(pred, truth); acc != 1 {
		t.Fatalf("relabeled accuracy %v, want 1", acc)
	}
	if acc := ClusterAccuracy([]int{}, []int{}); acc != 0 {
		t.Fatalf("empty accuracy %v", acc)
	}
}
