package retrieval

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/par"
)

// largerCorpus recycles the demo corpus with suffix variation so shard
// tests have enough documents to spread across shards.
func largerCorpus(n int) []Document {
	demo := DemoCorpus()
	docs := make([]Document, n)
	for i := range docs {
		d := demo[i%len(demo)]
		docs[i] = Document{
			ID:   fmt.Sprintf("%s-v%d", d.ID, i/len(demo)),
			Text: d.Text,
		}
	}
	return docs
}

func sameResults(t *testing.T, got, want []Result, context string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", context, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: result %d = %+v, want %+v (bitwise)", context, i, got[i], want[i])
		}
	}
}

// clusteredDocs generates n distinct documents over three topic
// vocabularies with a little cross-topic noise, so quantizers find real
// cells, partial probes genuinely drop candidates, and exact ties are
// rare.
func clusteredDocs(n int, seed int64) []Document {
	topics := [][]string{
		{"car", "engine", "mechanic", "brake", "dealership", "driver", "gearbox", "clutch"},
		{"galaxy", "telescope", "orbit", "astronomer", "nebula", "comet", "quasar", "planet"},
		{"flour", "oven", "yeast", "baker", "dough", "pastry", "saffron", "garlic"},
	}
	rng := rand.New(rand.NewSource(seed))
	docs := make([]Document, n)
	for i := range docs {
		var b strings.Builder
		for j := 0; j < 6+rng.Intn(10); j++ {
			words := topics[i%len(topics)]
			if rng.Intn(10) == 0 {
				words = topics[rng.Intn(len(topics))]
			}
			b.WriteString(words[rng.Intn(len(words))])
			b.WriteByte(' ')
		}
		docs[i] = Document{ID: fmt.Sprintf("c%04d", i), Text: b.String()}
	}
	return docs
}

// TestShardedOneShardMatchesUnsharded pins the two index shapes to each
// other on every route a query can take: tier configuration × query form
// × per-request probe budget × worker count. The unsharded index and the
// 1-shard index hold the same decomposition and the same quantizer (seed
// + 500009 on both layers), so they must agree bitwise everywhere; the
// 3-shard index has its own subspaces, so it is pinned to itself across
// worker counts.
func TestShardedOneShardMatchesUnsharded(t *testing.T) {
	const numDocs, topN = 780, 10 // 260 per shard at 3 shards: every segment trains its tiers
	docs := clusteredDocs(numDocs, 41)
	base := []Option{WithRank(6), WithEngine(EngineRandomized)}
	routes := []struct {
		name string
		opts []Option
	}{
		{"exact", nil},
		{"ann", []Option{WithANN(8, 2)}},
		{"quant", []Option{WithQuantized(1)}},
		{"ann+quant", []Option{WithANN(8, 2), WithQuantized(1)}},
	}
	queries := []string{"car engine", "galaxy of stars telescope", "yeast dough oven baker", "mechanic comet garlic"}
	ctx := context.Background()
	prev := par.SetMaxProcs(1)
	defer par.SetMaxProcs(prev)

	for _, route := range routes {
		t.Run(route.name, func(t *testing.T) {
			par.SetMaxProcs(1)
			build := func(extra ...Option) *Index {
				ix, err := Build(docs, append(append(append([]Option{}, base...), route.opts...), extra...)...)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { ix.Close() })
				return ix
			}
			plain := build()
			one := build(WithShards(1), WithAutoCompact(false))
			three := build(WithShards(3), WithAutoCompact(false))
			if !one.Sharded() || plain.Sharded() {
				t.Fatal("Sharded() flags wrong")
			}

			// run answers every (query, form, budget) cell on ix, in a
			// fixed order, plus the batch call.
			run := func(ix *Index) [][]Result {
				var out [][]Result
				keep := func(res []Result, err error) {
					if err != nil {
						t.Fatal(err)
					}
					out = append(out, res)
				}
				for _, q := range queries {
					terms, weights, _ := ix.querySparse(q)
					vec := make([]float64, ix.NumTerms())
					for i, term := range terms {
						vec[term] = weights[i]
					}
					keep(ix.Search(ctx, q, topN))
					keep(only(ix.Query(ctx, Query{Vector: vec, TopN: topN})))
					for _, nprobe := range []int{0, 3, 64} {
						keep(only(ix.Query(ctx, Query{Texts: []string{q}, TopN: topN, NProbe: probe(nprobe)})))
						keep(only(ix.Query(ctx, Query{Vector: vec, TopN: topN, NProbe: probe(nprobe)})))
					}
				}
				keep(ix.Search(ctx, queries[0], 0)) // every document
				batch, err := ix.SearchBatch(ctx, append([]string{"zzzznotaword"}, queries...), topN)
				if err != nil {
					t.Fatal(err)
				}
				return append(out, batch...)
			}
			compare := func(got, want [][]Result, what string) {
				t.Helper()
				if len(got) != len(want) {
					t.Fatalf("%s: %d result lists, want %d", what, len(got), len(want))
				}
				for i := range want {
					sameResults(t, got[i], want[i], fmt.Sprintf("%s, cell %d", what, i))
				}
			}

			var wantPlain, wantThree [][]Result
			for _, workers := range []int{1, 4} {
				par.SetMaxProcs(workers)
				gotPlain, gotOne, gotThree := run(plain), run(one), run(three)
				compare(gotOne, gotPlain, fmt.Sprintf("1-shard vs unsharded, %d workers", workers))
				if wantPlain == nil {
					wantPlain, wantThree = gotPlain, gotThree
					continue
				}
				compare(gotPlain, wantPlain, "unsharded across worker counts")
				compare(gotThree, wantThree, "3-shard across worker counts")
			}

			// Text and vector forms agree, the batch agrees with Search,
			// and the routes do what their names say: the unbudgeted
			// probe is the exact scan, and a partial budget is not.
			for qi := range queries {
				cell := wantPlain[qi*8 : qi*8+8]
				for i := 0; i < 8; i += 2 {
					sameResults(t, cell[i+1], cell[i], "vector vs text form")
				}
				sameResults(t, wantPlain[len(queries)*8+2+qi], cell[0], "batch vs Search")
			}
			if route.name != "exact" {
				differs := false
				for qi := range queries {
					def, exact := wantPlain[qi*8], wantPlain[qi*8+2]
					for i := range exact {
						if def[i] != exact[i] {
							differs = true
						}
					}
				}
				if !differs {
					t.Fatal("the configured budgets reproduce the exact scan on every query: the table is not exercising the tiers")
				}
			}
		})
	}
}

func TestShardedLiveAdd(t *testing.T) {
	docs := largerCorpus(20)
	ix, err := Build(docs, WithRank(3), WithShards(3), WithAutoCompact(false), WithSealEvery(4))
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	ctx := context.Background()

	first, err := ix.Add(ctx, []Document{
		{ID: "new-car", Text: "a shiny new car with a powerful engine"},
		{Text: "stars and galaxies in deep space"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if first != 20 {
		t.Fatalf("first = %d, want 20", first)
	}
	if ix.NumDocs() != 22 {
		t.Fatalf("NumDocs %d, want 22", ix.NumDocs())
	}
	if got := ix.DocID(20); got != "new-car" {
		t.Fatalf("DocID(20) = %q", got)
	}
	if got := ix.DocID(21); got != "doc-21" {
		t.Fatalf("DocID(21) = %q, want generated default", got)
	}

	// The added car document must be retrievable by a car query.
	res, err := ix.Search(ctx, "car engine", 22)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range res {
		if r.Doc == 20 {
			if r.ID != "new-car" {
				t.Fatalf("result carries ID %q", r.ID)
			}
			found = true
		}
	}
	if !found {
		t.Fatal("added document missing from results")
	}

	// Unsharded indexes refuse live updates.
	plain, err := Build(docs, WithRank(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plain.Add(ctx, []Document{{Text: "x"}}); !errors.Is(err, ErrImmutableIndex) {
		t.Fatalf("plain Add = %v, want ErrImmutableIndex", err)
	}
}

func TestShardedStats(t *testing.T) {
	docs := largerCorpus(30)
	ix, err := Build(docs, WithRank(3), WithShards(2), WithAutoCompact(false), WithSealEvery(4))
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	st := ix.Stats()
	if !st.Sharded || st.Shards != 2 {
		t.Fatalf("stats %+v", st)
	}
	if st.Backend != "lsi" || st.Rank != 3 {
		t.Fatalf("backend/rank: %+v", st)
	}
	if st.VocabSize == 0 || st.VocabSize != st.NumTerms {
		t.Fatalf("vocab size %d vs terms %d", st.VocabSize, st.NumTerms)
	}
	if st.MemoryBytes <= 0 {
		t.Fatalf("memory estimate %d", st.MemoryBytes)
	}
	if st.Segments != 2 || !st.Ready {
		t.Fatalf("segments/ready: %+v", st)
	}

	// Ingest past the seal threshold: sealed segments appear and the
	// index stops reporting ready until compacted.
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		if _, err := ix.Add(ctx, []Document{{Text: "car engine repair manual"}}); err != nil {
			t.Fatal(err)
		}
	}
	st = ix.Stats()
	if st.SealedPending == 0 || st.Ready {
		t.Fatalf("after ingest: %+v", st)
	}
	if st.NumDocs != 40 || st.FoldedDocs != 10 {
		t.Fatalf("doc counts: %+v", st)
	}
	if n, err := ix.Compact(); err != nil || n == 0 {
		t.Fatalf("compact: %d, %v", n, err)
	}
	st = ix.Stats()
	if !st.Ready || st.SealedPending != 0 || st.Compactions == 0 {
		t.Fatalf("after compact: %+v", st)
	}
}

func TestUnshardedStatsMemoryAndVocab(t *testing.T) {
	for _, build := range []builder{buildLSI, buildVSM} {
		ix, err := build(DemoCorpus(), WithRank(3))
		if err != nil {
			t.Fatal(err)
		}
		st := ix.Stats()
		backend := st.Backend
		if st.VocabSize == 0 {
			t.Fatalf("%s: vocab size 0 with a text layer attached", backend)
		}
		if st.MemoryBytes <= 0 {
			t.Fatalf("%s: memory estimate %d", backend, st.MemoryBytes)
		}
		if !st.Ready {
			t.Fatalf("%s: unsharded index not ready", backend)
		}
	}
}

func TestShardedSaveDirOpenRoundTrip(t *testing.T) {
	docs := largerCorpus(26)
	ix, err := Build(docs, WithRank(3), WithShards(3), WithAutoCompact(false), WithSealEvery(4))
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	ctx := context.Background()
	if _, err := ix.Add(ctx, []Document{{ID: "late", Text: "spiral galaxy telescope"}}); err != nil {
		t.Fatal(err)
	}

	dir := filepath.Join(t.TempDir(), "sharded-idx")
	if err := ix.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	// Save to a stream must refuse.
	if err := ix.Save(discardWriter{}); err == nil {
		t.Fatal("stream Save of a sharded index did not fail")
	}

	re, err := Open(dir, WithAutoCompact(false))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if !re.Sharded() {
		t.Fatal("reloaded index not sharded")
	}
	if re.NumDocs() != ix.NumDocs() {
		t.Fatalf("reloaded NumDocs %d, want %d", re.NumDocs(), ix.NumDocs())
	}
	for _, q := range []string{"car", "galaxy telescope", "cooking"} {
		want, err := ix.Search(ctx, q, 10)
		if err != nil {
			t.Fatal(err)
		}
		got, err := re.Search(ctx, q, 10)
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, got, want, q)
	}
	if re.DocID(26) != "late" {
		t.Fatalf("reloaded DocID(26) = %q", re.DocID(26))
	}
	// The reloaded index stays live.
	if _, err := re.Add(ctx, []Document{{Text: "fresh pasta recipe"}}); err != nil {
		t.Fatal(err)
	}
	if re.NumDocs() != ix.NumDocs()+1 {
		t.Fatalf("reloaded NumDocs %d after add", re.NumDocs())
	}

	// Opening a plain file through Open still works.
	plain, err := Build(docs[:8], WithRank(3))
	if err != nil {
		t.Fatal(err)
	}
	file := filepath.Join(t.TempDir(), "plain.idx")
	f, err := os.Create(file)
	if err != nil {
		t.Fatal(err)
	}
	if err := plain.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	reloaded, err := Open(file)
	if err != nil {
		t.Fatal(err)
	}
	if reloaded.Sharded() || reloaded.NumDocs() != 8 {
		t.Fatalf("plain Open: sharded=%v docs=%d", reloaded.Sharded(), reloaded.NumDocs())
	}
}

type discardWriter struct{}

func (discardWriter) Write(p []byte) (int, error) { return len(p), nil }
