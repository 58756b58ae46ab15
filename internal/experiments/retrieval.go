package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/corpus"
	"repro/internal/ir"
	"repro/internal/lsi"
	"repro/internal/vsm"
)

// RetrievalConfig parameterizes the LSI-vs-VSM retrieval comparison under
// synonymy — the qualitative claim of the paper's introduction ("LSI
// outperforms, with regard to precision and recall, more conventional
// vector-based methods, and ... does address the problems of polysemy and
// synonymy"). One synonym pair is planted per topic; each query is a single
// term of a pair, and a document is relevant iff it belongs to the pair's
// topic. VSM can only match the literal term (half the topical documents on
// average); LSI retrieves by topic.
type RetrievalConfig struct {
	Corpus  corpus.SeparableConfig
	NumDocs int
	K       int
	TopN    int
	Seed    int64
}

// DefaultRetrievalConfig uses a 6-topic corpus with one pair per topic.
// Terms are rare relative to document length (the paper's synonymy setup
// requires "each a small occurrence probability"), so a literal-match
// system can only ever reach the fraction of topical documents that happen
// to use the queried variant.
func DefaultRetrievalConfig() RetrievalConfig {
	return RetrievalConfig{
		Corpus: corpus.SeparableConfig{
			NumTopics: 6, TermsPerTopic: 60, Epsilon: 0.03, MinLen: 40, MaxLen: 70,
		},
		NumDocs: 300,
		K:       6,
		TopN:    50, // ≈ documents per topic
		Seed:    10,
	}
}

// SmallRetrievalConfig is the test-sized variant.
func SmallRetrievalConfig() RetrievalConfig {
	return RetrievalConfig{
		Corpus: corpus.SeparableConfig{
			NumTopics: 3, TermsPerTopic: 40, Epsilon: 0, MinLen: 30, MaxLen: 50,
		},
		NumDocs: 90,
		K:       3,
		TopN:    30, // ≈ documents per topic
		Seed:    10,
	}
}

// RetrievalResult compares the two systems query-by-query and in aggregate.
// Because VSM retrieves only literal matches (which are all topical in a
// separable corpus), its precision is high but its recall is capped at the
// fraction of relevant documents containing the queried variant — the
// synonymy failure shows up in Recall@N and MAP.
type RetrievalResult struct {
	Config RetrievalConfig
	// Per-system aggregates over all queries.
	LSIPrecisionAtN, VSMPrecisionAtN float64
	LSIRecallAtN, VSMRecallAtN       float64
	LSIMAP, VSMMAP                   float64
	// QueryCount is the number of synonym-term queries evaluated.
	QueryCount int
}

// RunRetrieval builds both indexes over the same synonym-planted corpus and
// compares precision@N and MAP.
func RunRetrieval(cfg RetrievalConfig) (*RetrievalResult, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	model, pairs, err := corpus.SynonymSeparableModel(cfg.Corpus, cfg.Corpus.NumTopics, rng)
	if err != nil {
		return nil, err
	}
	c, a, err := sample(model, cfg.NumDocs, rng)
	if err != nil {
		return nil, err
	}
	labels := c.Labels()
	lsiIx, err := lsi.Build(a, cfg.K, lsi.Options{Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	vsmIx := vsm.NewFromMatrix(a)

	out := &RetrievalResult{Config: cfg}
	var lsiRuns, vsmRuns []ir.RankedRun
	n := model.NumTerms
	for topicID, p := range pairs {
		relevant := topicDocs(labels, topicID)
		if len(relevant) == 0 {
			continue
		}
		// Query with each side of the pair separately.
		for _, term := range p {
			q := make([]float64, n)
			q[term] = 1
			lsiDocs := matchDocs(lsiIx.Search(q, 0))
			vsmDocs := matchDocs(vsmIx.Search(q, 0))
			lsiRuns = append(lsiRuns, ir.RankedRun{Retrieved: lsiDocs, Relevant: relevant})
			vsmRuns = append(vsmRuns, ir.RankedRun{Retrieved: vsmDocs, Relevant: relevant})
			out.LSIPrecisionAtN += ir.PrecisionAtK(lsiDocs, relevant, cfg.TopN)
			out.VSMPrecisionAtN += ir.PrecisionAtK(vsmDocs, relevant, cfg.TopN)
			out.LSIRecallAtN += ir.RecallAtK(lsiDocs, relevant, cfg.TopN)
			out.VSMRecallAtN += ir.RecallAtK(vsmDocs, relevant, cfg.TopN)
			out.QueryCount++
		}
	}
	if out.QueryCount > 0 {
		out.LSIPrecisionAtN /= float64(out.QueryCount)
		out.VSMPrecisionAtN /= float64(out.QueryCount)
		out.LSIRecallAtN /= float64(out.QueryCount)
		out.VSMRecallAtN /= float64(out.QueryCount)
	}
	out.LSIMAP = ir.MeanAveragePrecision(lsiRuns)
	out.VSMMAP = ir.MeanAveragePrecision(vsmRuns)
	return out, nil
}

// matchDocs lists the documents of a ranked answer, in rank order.
func matchDocs(ms []lsi.Match) []int {
	out := make([]int, len(ms))
	for i, m := range ms {
		out[i] = m.Doc
	}
	return out
}

// topicDocs is the set of documents whose label is topic.
func topicDocs(labels []int, topic int) map[int]bool {
	docs := map[int]bool{}
	for doc, l := range labels {
		if l == topic {
			docs[doc] = true
		}
	}
	return docs
}

// Table renders the comparison.
func (r *RetrievalResult) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Retrieval under synonymy: LSI (rank %d) vs vector-space model, %d queries\n",
		r.Config.K, r.QueryCount)
	fmt.Fprintf(&b, "%-8s %14s %14s %10s\n", "",
		fmt.Sprintf("P@%d", r.Config.TopN), fmt.Sprintf("R@%d", r.Config.TopN), "MAP")
	fmt.Fprintf(&b, "%-8s %14.4f %14.4f %10.4f\n", "LSI", r.LSIPrecisionAtN, r.LSIRecallAtN, r.LSIMAP)
	fmt.Fprintf(&b, "%-8s %14.4f %14.4f %10.4f\n", "VSM", r.VSMPrecisionAtN, r.VSMRecallAtN, r.VSMMAP)
	return b.String()
}

// CFConfig parameterizes the collaborative-filtering comparison (§6).
type CFConfig struct {
	Users, Items, Groups int
	EventsPerUser        int
	Affinity             float64
	HoldoutPerUser       int
	K                    int
	TopNs                []int
	Seed                 int64
}

// DefaultCFConfig uses 400 users × 200 items in 8 taste groups.
func DefaultCFConfig() CFConfig {
	return CFConfig{
		Users: 400, Items: 200, Groups: 8,
		EventsPerUser: 40, Affinity: 0.85, HoldoutPerUser: 4,
		K: 8, TopNs: []int{5, 10, 20},
		Seed: 11,
	}
}

// SmallCFConfig is the test-sized variant.
func SmallCFConfig() CFConfig {
	return CFConfig{
		Users: 80, Items: 40, Groups: 4,
		EventsPerUser: 25, Affinity: 0.9, HoldoutPerUser: 2,
		K: 4, TopNs: []int{5, 10},
		Seed: 11,
	}
}
