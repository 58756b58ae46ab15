package ir

import (
	"math"
	"testing"
)

func rel(ids ...int) map[int]bool {
	m := map[int]bool{}
	for _, id := range ids {
		m[id] = true
	}
	return m
}

func TestPrecisionAtK(t *testing.T) {
	retrieved := []int{1, 2, 3, 4, 5}
	relevant := rel(1, 3, 9)
	if got := PrecisionAtK(retrieved, relevant, 1); got != 1 {
		t.Fatalf("P@1 = %v", got)
	}
	if got := PrecisionAtK(retrieved, relevant, 5); got != 0.4 {
		t.Fatalf("P@5 = %v", got)
	}
	// k beyond list length keeps denominator k.
	if got := PrecisionAtK(retrieved, relevant, 10); got != 0.2 {
		t.Fatalf("P@10 = %v", got)
	}
}

func TestRecallAtK(t *testing.T) {
	retrieved := []int{1, 2, 3}
	relevant := rel(1, 3, 9)
	if got := RecallAtK(retrieved, relevant, 3); math.Abs(got-2.0/3) > 1e-14 {
		t.Fatalf("R@3 = %v", got)
	}
	if got := RecallAtK(retrieved, map[int]bool{}, 3); got != 0 {
		t.Fatalf("R with no relevant = %v", got)
	}
}

func TestEvalPanics(t *testing.T) {
	for i, f := range []func(){
		func() { PrecisionAtK(nil, nil, 0) },
		func() { RecallAtK(nil, nil, 0) },
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

func TestAveragePrecision(t *testing.T) {
	// Relevant at ranks 1 and 3 of {1,2,3}: AP = (1/1 + 2/3)/2 = 5/6.
	got := AveragePrecision([]int{1, 2, 3}, rel(1, 3))
	if math.Abs(got-5.0/6) > 1e-14 {
		t.Fatalf("AP = %v, want 5/6", got)
	}
	// Missing relevant documents lower AP.
	got = AveragePrecision([]int{1}, rel(1, 99))
	if math.Abs(got-0.5) > 1e-14 {
		t.Fatalf("AP with missing relevant = %v, want 0.5", got)
	}
	if AveragePrecision([]int{1}, map[int]bool{}) != 0 {
		t.Fatal("AP with no relevant should be 0")
	}
	// Perfect ranking has AP = 1.
	if AveragePrecision([]int{4, 7}, rel(4, 7)) != 1 {
		t.Fatal("perfect AP should be 1")
	}
}

func TestMeanAveragePrecision(t *testing.T) {
	runs := []RankedRun{
		{Retrieved: []int{1}, Relevant: rel(1)},    // AP 1
		{Retrieved: []int{2, 1}, Relevant: rel(1)}, // AP 0.5
	}
	if got := MeanAveragePrecision(runs); math.Abs(got-0.75) > 1e-14 {
		t.Fatalf("MAP = %v", got)
	}
	if MeanAveragePrecision(nil) != 0 {
		t.Fatal("MAP of no runs should be 0")
	}
}
