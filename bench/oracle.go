package main

import (
	"fmt"
	"math"
	"os"
	"slices"
	"sort"
	"strings"

	"repro/internal/lsi"
	"repro/retrieval"
)

// scoreTol is the Result.Score contract: a served score may differ from
// the reference by reordered floating-point sums, no more.
const scoreTol = 1e-12

// oracle is the reference for the unsharded index: dense cosine against
// every document and a full sort. It is deliberately naive and shares no
// kernel with production — its own loops over its own copies of the
// basis and the document vectors — so a wrong fast path cannot agree with
// it by construction.
type oracle struct {
	basis [][]float64 // numTerms × k
	docs  [][]float64 // numDocs × k
	norms []float64   // of each row of docs
	ids   []string
	vocab map[string]int
}

type scored struct {
	doc   int
	id    string
	score float64
}

func newOracle(ix *lsi.Index, meta *lsi.Meta) *oracle {
	o := &oracle{ids: meta.DocIDs, vocab: vocabOf(meta)}
	b, d := ix.Basis(), ix.DocVectors()
	o.basis = make([][]float64, b.Rows())
	for i := range o.basis {
		o.basis[i] = append([]float64(nil), b.Row(i)...)
	}
	o.docs = make([][]float64, d.Rows())
	o.norms = make([]float64, d.Rows())
	for i := range o.docs {
		o.docs[i] = append([]float64(nil), d.Row(i)...)
		o.norms[i] = naiveNorm(o.docs[i])
	}
	return o
}

// vocabOf maps each term of the index's vocabulary to its ID.
func vocabOf(meta *lsi.Meta) map[string]int {
	vocab := make(map[string]int, len(meta.Vocab))
	for i, t := range meta.Vocab {
		vocab[t] = i
	}
	return vocab
}

// loadFlat reads an unsharded index file, the one the server serves.
func loadFlat(path string) (*lsi.Index, *lsi.Meta, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	ix, meta, err := lsi.LoadMeta(f)
	if err != nil {
		return nil, nil, err
	}
	if meta == nil {
		return nil, nil, fmt.Errorf("%s: index file carries no vocabulary", path)
	}
	return ix, meta, nil
}

// sparseQuery is the log-weighted term vector of a query text: weight
// 1 + ln(count) per in-vocabulary term, term IDs ascending.
func sparseQuery(vocab map[string]int, text string) (terms []int, weights []float64) {
	counts := map[int]float64{}
	for _, tok := range strings.Fields(text) {
		if id, ok := vocab[tok]; ok {
			counts[id]++
		}
	}
	for id := range counts {
		terms = append(terms, id)
	}
	sort.Ints(terms)
	weights = make([]float64, len(terms))
	for i, id := range terms {
		weights[i] = 1 + math.Log(counts[id])
	}
	return terms, weights
}

func naiveNorm(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// scores is the cosine of the folded-in query against every document.
func (o *oracle) scores(text string) []scored {
	terms, weights := sparseQuery(o.vocab, text)
	k := len(o.docs[0])
	pq := make([]float64, k)
	for i, t := range terms {
		for c := 0; c < k; c++ {
			pq[c] += weights[i] * o.basis[t][c]
		}
	}
	qn := naiveNorm(pq)
	out := make([]scored, len(o.docs))
	for j, d := range o.docs {
		var dot float64
		for c := 0; c < k; c++ {
			dot += pq[c] * d[c]
		}
		var cos float64
		if dn := o.norms[j]; qn > 0 && dn > 0 {
			cos = math.Max(-1, math.Min(1, dot/(qn*dn)))
		}
		out[j] = scored{doc: j, id: o.ids[j], score: cos}
	}
	return out
}

// top returns every document's score (indexed by document) and the n
// best, score descending and document ascending on ties.
func (o *oracle) top(text string, n int) (all, best []scored) {
	all = o.scores(text)
	// The sort moves (score, document) pairs, not whole entries: a third
	// of the bytes, and the check of a run is most of what it waits for.
	type pair struct {
		score float64
		doc   int
	}
	ranked := make([]pair, len(all))
	for j, s := range all {
		ranked[j] = pair{s.score, j}
	}
	slices.SortFunc(ranked, func(a, b pair) int {
		switch {
		case a.score > b.score:
			return -1
		case a.score < b.score:
			return 1
		}
		return a.doc - b.doc
	})
	for _, r := range ranked[:min(n, len(ranked))] {
		best = append(best, all[r.doc])
	}
	return all, best
}

// matchesOracle holds a served answer to the oracle: the i-th served score
// equals the i-th best reference score, and every served document's own
// reference score equals the score it was served with, both within
// scoreTol. IDs are compared through scores so that two documents tied
// within rounding may swap places without counting as a wrong answer.
func matchesOracle(served []retrieval.Result, all, best []scored) error {
	if len(served) != len(best) {
		return fmt.Errorf("served %d results, reference has %d", len(served), len(best))
	}
	for i, r := range served {
		if math.Abs(r.Score-best[i].score) > scoreTol {
			return fmt.Errorf("rank %d: served score %v, reference %v", i, r.Score, best[i].score)
		}
		if r.Doc < 0 || r.Doc >= len(all) || all[r.Doc].id != r.ID {
			return fmt.Errorf("rank %d: served doc %d id %q is not a reference document", i, r.Doc, r.ID)
		}
		if math.Abs(all[r.Doc].score-r.Score) > scoreTol {
			return fmt.Errorf("rank %d: doc %s served at %v, reference scores it %v", i, r.ID, r.Score, all[r.Doc].score)
		}
	}
	return nil
}

// sameAnswer holds a served answer to the index's own exact answer for
// the sharded workloads: same documents in the same order, scores within
// scoreTol.
func sameAnswer(served, want []retrieval.Result) error {
	if len(served) != len(want) {
		return fmt.Errorf("served %d results, reference has %d", len(served), len(want))
	}
	for i := range served {
		if served[i].ID != want[i].ID || served[i].Doc != want[i].Doc {
			return fmt.Errorf("rank %d: served %s (doc %d), reference %s (doc %d)",
				i, served[i].ID, served[i].Doc, want[i].ID, want[i].Doc)
		}
		if math.Abs(served[i].Score-want[i].Score) > scoreTol {
			return fmt.Errorf("rank %d: served score %v, reference %v", i, served[i].Score, want[i].Score)
		}
	}
	return nil
}

// overlap is the share of the reference's top IDs the served answer holds.
func overlap(served []retrieval.Result, want []string) float64 {
	if len(want) == 0 {
		return 1
	}
	in := make(map[string]bool, len(served))
	for _, r := range served {
		in[r.ID] = true
	}
	hit := 0
	for _, id := range want {
		if in[id] {
			hit++
		}
	}
	return float64(hit) / float64(len(want))
}

func idsOf(rs []retrieval.Result) []string {
	ids := make([]string, len(rs))
	for i, r := range rs {
		ids[i] = r.ID
	}
	return ids
}

func idsOfScored(ss []scored) []string {
	ids := make([]string, len(ss))
	for i, s := range ss {
		ids[i] = s.id
	}
	return ids
}

// structurallySound is the check every measured response passes whatever
// its workload: a full page, scores that are cosines, best first.
func structurallySound(rs []retrieval.Result) error {
	if len(rs) != topN {
		return fmt.Errorf("%d results, want %d", len(rs), topN)
	}
	for i, r := range rs {
		if math.IsNaN(r.Score) || r.Score < -1 || r.Score > 1 {
			return fmt.Errorf("rank %d: score %v is not a cosine", i, r.Score)
		}
		if i > 0 && r.Score > rs[i-1].Score {
			return fmt.Errorf("rank %d: score %v above rank %d's %v", i, r.Score, i-1, rs[i-1].Score)
		}
	}
	return nil
}
