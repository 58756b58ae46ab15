package experiments

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"strings"

	"repro/internal/corpus"
	"repro/internal/eval"
	"repro/internal/lsi"
	"repro/internal/segment"
)

// DriftConfig parameterizes the fold-in drift table: how documents added
// after a build should be represented, and the signal that says when
// folding them into the build's basis stops being right. The corpus is
// the benchmark's (the paper's pure ε-separable model, documents dealt
// round-robin over the topics). In-model tails of growing size come from
// its last tenth, unseen-topic tails from the topics a second base
// leaves out.
type DriftConfig struct {
	Corpus       corpus.SeparableConfig
	DocsPerTopic int
	K            int
	// TierSize is the sealed segment's size: tails are added in tiers of
	// this many documents, and residual shares are read per tier.
	TierSize int
	// Tails are the tail sizes compared, each a multiple of TierSize, at
	// most a tenth of the corpus and at most the Unseen topics' documents.
	Tails []int
	// Unseen topics are left out of a second base, into which those
	// topics' documents are folded as out-of-model tails.
	Unseen int
	// QueriesPerTopic short queries of QueryLen terms are drawn from every
	// topic.
	QueriesPerTopic, QueryLen int
	Seed                      int64
}

// DefaultDriftConfig is the benchmark's default scale: 64 topics × 800
// documents at rank 64, 128-document seals.
func DefaultDriftConfig() DriftConfig {
	return DriftConfig{
		Corpus: corpus.SeparableConfig{
			NumTopics: 64, TermsPerTopic: 25, Epsilon: 0.1, MinLen: 50, MaxLen: 100,
		},
		DocsPerTopic: 800, K: 64, TierSize: 128,
		Tails:  []int{512, 1024, 2560, 5120},
		Unseen: 8, QueriesPerTopic: 4, QueryLen: 8, Seed: 1,
	}
}

// SmallDriftConfig is the test-sized variant.
func SmallDriftConfig() DriftConfig {
	return DriftConfig{
		Corpus: corpus.SeparableConfig{
			NumTopics: 16, TermsPerTopic: 25, Epsilon: 0.1, MinLen: 50, MaxLen: 100,
		},
		DocsPerTopic: 100, K: 16, TierSize: 32,
		Tails:  []int{64, 160},
		Unseen: 2, QueriesPerTopic: 4, QueryLen: 8, Seed: 1,
	}
}

// DriftTail is one tail's rankings under three representations of it: a
// fresh build over base and tail together; the tail folded into the
// base's basis (what the shard compactor's settle keeps); and the tail
// re-decomposed as the size-tiered tiers that merging its seals leaves,
// each decomposed on its own (what the compactor did before it settled).
// For an unseen-topic tail the re-decomposed column is what a drift rule
// that re-decomposes the tiers the basis does not represent would serve.
type DriftTail struct {
	// Unseen marks a tail of topics the base never saw.
	Unseen bool
	Docs   int
	// *Share is the share of top-10 slots the tail's documents fill;
	// *Overlap is the top-10 overlap with the fresh build's answer.
	FreshShare, FoldShare, RedoShare float64
	FoldOverlap, RedoOverlap         float64
}

// DriftShares is one population's residual share per tier, against the
// reference share of the base it folds into.
type DriftShares struct {
	Name                string
	Reference, Min, Max float64
	Tiers               int
}

// DriftResult is the drift table.
type DriftResult struct {
	Config DriftConfig
	Tails  []DriftTail
	Shares []DriftShares
}

// RunDrift measures the drift table. In-model tails come from the
// corpus's last tenth, folded into a base over the first nine tenths;
// unseen-topic tails come from the last Unseen topics, folded into a
// base over all the others.
func RunDrift(cfg DriftConfig) (*DriftResult, error) {
	model, err := corpus.PureSeparableModel(cfg.Corpus)
	if err != nil {
		return nil, err
	}
	topics := cfg.Corpus.NumTopics
	model.Sampler = &corpus.RoundRobinSampler{NumTopics: topics, MinLen: cfg.Corpus.MinLen, MaxLen: cfg.Corpus.MaxLen}
	rng := rand.New(rand.NewSource(cfg.Seed))
	c, err := corpus.Generate(model, topics*cfg.DocsPerTopic, rng)
	if err != nil {
		return nil, err
	}
	var queries []segment.Query
	for t := 0; t < topics; t++ {
		qs, err := corpus.GenerateQueries(model, t, cfg.QueriesPerTopic, cfg.QueryLen, rng)
		if err != nil {
			return nil, err
		}
		for _, q := range qs {
			terms, weights := logWeights(q.Terms, q.Counts)
			queries = append(queries, segment.Query{Terms: terms, Weights: weights})
		}
	}
	d := &drift{cfg: cfg, numTerms: c.NumTerms}
	top := func(segs ...*segment.Segment) [][]int {
		if d.err != nil { // a step failed and left a nil segment
			return nil
		}
		res := make([][]int, len(queries))
		for i, q := range queries {
			ms, _ := segment.Search(segs, q, 10, segment.ProbeOptions{})
			for _, m := range ms {
				res[i] = append(res[i], m.Doc)
			}
		}
		return res
	}

	nBase := len(c.Docs) * 9 / 10
	seen, unseen := byTopic(c, topics-cfg.Unseen)
	base, seenBase := d.build(c.Docs[:nBase]), d.build(seen)
	out := &DriftResult{Config: cfg}
	for _, p := range []struct {
		unseen     bool
		base       *segment.Segment
		docs, tail []corpus.Document
	}{{false, base, c.Docs[:nBase], c.Docs[nBase:]}, {true, seenBase, seen, unseen}} {
		first := len(p.docs)
		for _, n := range cfg.Tails {
			if n%cfg.TierSize != 0 || n > len(p.tail) {
				return nil, fmt.Errorf("experiments: tail %d is not a multiple of %d within %d held documents", n, cfg.TierSize, len(p.tail))
			}
			want := top(d.build(append(p.docs[:first:first], p.tail[:n]...)))
			fold := top(p.base, d.fold(p.base, p.tail[:n], first))
			redo := top(append([]*segment.Segment{p.base}, d.redecompose(p.base, p.tail[:n], first)...)...)
			if d.err != nil {
				return nil, d.err
			}
			out.Tails = append(out.Tails, DriftTail{
				Unseen: p.unseen, Docs: n,
				FreshShare: tailShare(want, first), FoldShare: tailShare(fold, first), RedoShare: tailShare(redo, first),
				FoldOverlap: eval.TopKOverlap(fold, want, 10), RedoOverlap: eval.TopKOverlap(redo, want, 10),
			})
		}
	}

	// Residual shares per tier: the base's own documents, in-model
	// fold-ins, and fold-ins of topics the second base never saw.
	out.Shares = []DriftShares{
		d.shares("fitted (base's own)", base, base),
		d.shares("in-model fold-in", base, d.fold(base, c.Docs[nBase:], nBase)),
		d.shares(fmt.Sprintf("unseen-topic fold-in (%d of %d topics held out)", cfg.Unseen, topics), seenBase, d.fold(seenBase, unseen, len(seen))),
	}
	return out, d.err
}

// drift holds what RunDrift's steps share. Its steps record the first
// error in err and return nil from then on.
type drift struct {
	cfg      DriftConfig
	numTerms int
	err      error
}

// raw renders docs as the retrieval layer's sparse log-weighted columns.
func (d *drift) raw(docs []corpus.Document) *segment.Raw {
	r := &segment.Raw{}
	for i := range docs {
		terms, weights := logWeights(docs[i].Terms, docs[i].Counts)
		r.Terms, r.Weights = append(r.Terms, terms), append(r.Weights, weights)
	}
	return r
}

func logWeights(terms, counts []int) ([]int, []float64) {
	w := make([]float64, len(counts))
	for i, c := range counts {
		w[i] = 1 + math.Log(float64(c))
	}
	return terms, w
}

func globals(first, n int) []int {
	g := make([]int, n)
	for i := range g {
		g[i] = first + i
	}
	return g
}

// build decomposes docs into one compacted segment numbered from 0.
func (d *drift) build(docs []corpus.Document) *segment.Segment {
	if d.err != nil {
		return nil
	}
	raw := d.raw(docs)
	ix, err := lsi.Build(raw.Matrix(d.numTerms), d.cfg.K, lsi.Options{Seed: d.cfg.Seed})
	if err != nil {
		d.err = err
		return nil
	}
	seg, err := segment.New(ix, globals(0, len(docs)), raw, true)
	d.err = err
	return seg
}

// fold folds docs into base's basis as one segment numbered from first.
func (d *drift) fold(base *segment.Segment, docs []corpus.Document, first int) *segment.Segment {
	if d.err != nil {
		return nil
	}
	raw := d.raw(docs)
	empty := &segment.Segment{Ix: base.Ix.EmptyLike()}
	seg, err := empty.Extend(raw.Terms, raw.Weights, globals(first, len(docs)))
	d.err = err
	return seg
}

// redecompose is the tail re-decomposed as the compactor did before it
// settled: the one tier per set bit of the seal count (largest first)
// that size-tiered merges of its TierSize seals leave, each decomposed on
// its own.
func (d *drift) redecompose(base *segment.Segment, docs []corpus.Document, first int) []*segment.Segment {
	seals := len(docs) / d.cfg.TierSize
	var tiers []*segment.Segment
	for b := bits.Len(uint(seals)) - 1; b >= 0; b-- {
		if seals&(1<<b) == 0 {
			continue
		}
		n := (1 << b) * d.cfg.TierSize
		sealed := d.fold(base, docs[:n], first)
		if d.err != nil {
			return nil
		}
		var tier *segment.Segment
		tier, d.err = segment.Compact([]*segment.Segment{sealed}, d.numTerms,
			segment.CompactOptions{K: d.cfg.K, Seed: d.cfg.Seed + int64(first)*8191 + 1})
		tiers = append(tiers, tier)
		docs, first = docs[n:], first+n
	}
	return tiers
}

// shares reads seg's residual share tier by tier, against the share of
// the base it was folded into (or is).
func (d *drift) shares(name string, base, seg *segment.Segment) DriftShares {
	if d.err != nil {
		return DriftShares{}
	}
	ref := residualShare(base.Ix.Norms(), base.Raw.Weights)
	s := DriftShares{Name: name, Reference: ref, Min: math.Inf(1), Max: math.Inf(-1)}
	norms := seg.Ix.Norms()
	for lo := 0; lo+d.cfg.TierSize <= seg.Len(); lo += d.cfg.TierSize {
		hi := lo + d.cfg.TierSize
		share := residualShare(norms[lo:hi], seg.Raw.Weights[lo:hi])
		s.Min, s.Max = math.Min(s.Min, share), math.Max(s.Max, share)
		s.Tiers++
	}
	return s
}

// residualShare is the share of a document set's term-space energy that
// its latent rows leave out, 1 − Σ‖row‖²/Σ‖d‖², from the rows' norms and
// the documents' weights: each row is the projection of its document
// onto an orthonormal basis, so the share is what the basis does not
// capture. Each square is rounded before it is summed (no FMA), so the
// bits do not depend on the architecture.
func residualShare(norms []float64, weights [][]float64) float64 {
	var kept, energy float64
	for _, n := range norms {
		kept += float64(n * n)
	}
	for _, w := range weights {
		for _, v := range w {
			energy += float64(v * v)
		}
	}
	return 1 - kept/energy
}

// byTopic splits the corpus into the documents of topics below cut and
// the rest.
func byTopic(c *corpus.Corpus, cut int) (below, rest []corpus.Document) {
	for i, l := range c.Labels() {
		if l < cut {
			below = append(below, c.Docs[i])
		} else {
			rest = append(rest, c.Docs[i])
		}
	}
	return below, rest
}

// tailShare is the share of result slots holding a document numbered
// from first up.
func tailShare(res [][]int, first int) float64 {
	tail, slots := 0, 0
	for _, r := range res {
		for _, g := range r {
			if g >= first {
				tail++
			}
		}
		slots += len(r)
	}
	return float64(tail) / float64(max(slots, 1))
}

// Table renders the drift table.
func (r *DriftResult) Table() string {
	var b strings.Builder
	cfg := r.Config
	fmt.Fprintf(&b, "Fold-in drift: %d topics × %d docs, rank %d, %d-doc seals, %d queries of %d terms\n",
		cfg.Corpus.NumTopics, cfg.DocsPerTopic, cfg.K, cfg.TierSize, cfg.Corpus.NumTopics*cfg.QueriesPerTopic, cfg.QueryLen)
	fmt.Fprintf(&b, "in-model tails: base = first 9/10; unseen-topic tails: base = the other %d topics\n", cfg.Corpus.NumTopics-cfg.Unseen)
	fmt.Fprintf(&b, "%-20s | %-26s | %-18s\n", "", "tail share of top-10 slots", "overlap@10 w/ fresh")
	fmt.Fprintf(&b, "%-13s %6s | %6s %8s %10s | %8s %9s\n", "tail", "docs", "fresh", "fold-in", "re-decomp", "fold-in", "re-decomp")
	for _, t := range r.Tails {
		name := "in-model"
		if t.Unseen {
			name = "unseen-topic"
		}
		fmt.Fprintf(&b, "%-13s %6d | %5.1f%% %7.1f%% %9.1f%% | %8.3f %9.3f\n",
			name, t.Docs, 100*t.FreshShare, 100*t.FoldShare, 100*t.RedoShare, t.FoldOverlap, t.RedoOverlap)
	}
	fmt.Fprintf(&b, "\nresidual share per %d-doc tier, 1 − Σ‖row‖²/Σ‖d‖²\n", cfg.TierSize)
	fmt.Fprintf(&b, "%-46s %6s %10s %15s %10s\n", "documents", "tiers", "reference", "min – max", "max − ref")
	for _, s := range r.Shares {
		fmt.Fprintf(&b, "%-46s %6d %10.3f %7.3f – %5.3f %10.3f\n", s.Name, s.Tiers, s.Reference, s.Min, s.Max, s.Max-s.Reference)
	}
	return b.String()
}
