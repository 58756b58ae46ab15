package ir

import "fmt"

// PrecisionAtK returns the fraction of the first k retrieved documents that
// are relevant. If fewer than k documents were retrieved the denominator is
// still k (standard convention). It panics if k < 1.
func PrecisionAtK(retrieved []int, relevant map[int]bool, k int) float64 {
	if k < 1 {
		panic(fmt.Sprintf("ir: PrecisionAtK k=%d", k))
	}
	hits := 0
	for i, d := range retrieved {
		if i >= k {
			break
		}
		if relevant[d] {
			hits++
		}
	}
	return float64(hits) / float64(k)
}

// RecallAtK returns the fraction of all relevant documents found within the
// first k retrieved. It returns 0 if there are no relevant documents.
func RecallAtK(retrieved []int, relevant map[int]bool, k int) float64 {
	if k < 1 {
		panic(fmt.Sprintf("ir: RecallAtK k=%d", k))
	}
	if len(relevant) == 0 {
		return 0
	}
	hits := 0
	for i, d := range retrieved {
		if i >= k {
			break
		}
		if relevant[d] {
			hits++
		}
	}
	return float64(hits) / float64(len(relevant))
}

// AveragePrecision returns the average of precision values at each relevant
// document's rank (AP). It returns 0 if there are no relevant documents.
func AveragePrecision(retrieved []int, relevant map[int]bool) float64 {
	if len(relevant) == 0 {
		return 0
	}
	hits := 0
	var sum float64
	for i, d := range retrieved {
		if relevant[d] {
			hits++
			sum += float64(hits) / float64(i+1)
		}
	}
	return sum / float64(len(relevant))
}

// MeanAveragePrecision averages AP over queries. Each entry pairs a ranked
// retrieval list with its relevance set.
func MeanAveragePrecision(runs []RankedRun) float64 {
	if len(runs) == 0 {
		return 0
	}
	var sum float64
	for _, r := range runs {
		sum += AveragePrecision(r.Retrieved, r.Relevant)
	}
	return sum / float64(len(runs))
}

// RankedRun is one query's ranked retrieval output and ground truth.
type RankedRun struct {
	Retrieved []int
	Relevant  map[int]bool
}
