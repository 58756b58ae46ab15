package eval

import "testing"

func TestRecallAtK(t *testing.T) {
	tests := []struct {
		name       string
		got, truth []string
		k          int
		want       float64
	}{
		{"identical", []string{"a", "b", "c"}, []string{"a", "b", "c"}, 3, 1},
		{"order irrelevant", []string{"c", "a", "b"}, []string{"a", "b", "c"}, 3, 1},
		{"partial", []string{"a", "x", "y"}, []string{"a", "b", "c"}, 3, 1.0 / 3},
		{"disjoint", []string{"x", "y"}, []string{"a", "b"}, 2, 0},
		{"k truncates got", []string{"x", "a"}, []string{"a"}, 1, 0},
		{"k truncates truth", []string{"a"}, []string{"a", "b", "c"}, 1, 1},
		{"short truth denominator", []string{"a", "b"}, []string{"a"}, 10, 1},
		{"empty truth", []string{"a"}, nil, 5, 1},
		{"empty got", nil, []string{"a"}, 5, 0},
		{"k zero", []string{"a"}, []string{"a"}, 0, 0},
		{"duplicate got counted once", []string{"a", "a", "a"}, []string{"a", "b", "c"}, 3, 1.0 / 3},
	}
	for _, tt := range tests {
		if got := RecallAtK(tt.got, tt.truth, tt.k); got != tt.want {
			t.Errorf("%s: RecallAtK(%v, %v, %d) = %v, want %v",
				tt.name, tt.got, tt.truth, tt.k, got, tt.want)
		}
	}
}

func TestTopKOverlapAverages(t *testing.T) {
	got := [][]string{{"a", "b"}, {"x", "y"}}
	truth := [][]string{{"a", "b"}, {"p", "q"}}
	if o := TopKOverlap(got, truth, 2); o != 0.5 {
		t.Fatalf("TopKOverlap = %v, want 0.5 (one perfect query, one disjoint)", o)
	}
}

func TestTopKOverlapEmptySetScoresZero(t *testing.T) {
	if o := TopKOverlap[string](nil, nil, 10); o != 0 {
		t.Fatalf("TopKOverlap(empty) = %v, want 0 so gates cannot pass vacuously", o)
	}
}

func TestTopKOverlapLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched query sets did not panic")
		}
	}()
	TopKOverlap([][]string{{"a"}}, nil, 1)
}
