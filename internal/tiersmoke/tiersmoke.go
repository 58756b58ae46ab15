// Package tiersmoke is the harness the tier smokes share (cmd/annsmoke
// for the IVF tier, cmd/quantsmoke for the int8 tier; scripts/tier_smoke.sh
// runs both on one corpus for `make tier-smoke`). It reads a corpusgen
// JSON-lines corpus, builds an LSI index with the tier's option over it,
// samples queries from the corpus itself — the model's own distribution,
// where the paper's topic-clustering guarantees apply — and times search
// passes; each command measures its own fidelity figure and gates it
// beside the speedup over the exact scan.
package tiersmoke

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/corpus"
	"repro/retrieval"
)

// Flags are the flags every tier smoke takes.
type Flags struct {
	Corpus     string
	Rank       int
	TopN       int
	Queries    int
	Seed       int64
	MinSpeedup float64
	Out        string
}

// Register declares the shared flags on fs, rank defaulting to rank.
func (f *Flags) Register(fs *flag.FlagSet, rank int) {
	fs.StringVar(&f.Corpus, "corpus", "", "corpusgen JSON-lines corpus to index (required)")
	fs.IntVar(&f.Rank, "rank", rank, "LSI rank")
	fs.IntVar(&f.TopN, "topn", 10, "result depth of the fidelity measurement")
	fs.IntVar(&f.Queries, "queries", 200, "number of queries sampled from the corpus")
	fs.Int64Var(&f.Seed, "seed", 1, "query-sampling seed")
	fs.Float64Var(&f.MinSpeedup, "min-speedup", 0, "fail when the exact/tier latency ratio falls below this")
	fs.StringVar(&f.Out, "o", "-", "summary output path ('-' for stdout)")
}

// Parse parses args into fs and checks the shared flags.
func (f *Flags) Parse(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected positional arguments: %v", fs.Args())
	}
	if f.Corpus == "" {
		return fmt.Errorf("-corpus is required")
	}
	if f.Queries <= 0 || f.TopN <= 0 {
		return fmt.Errorf("-queries and -topn must be positive")
	}
	return nil
}

// Setup is a corpus indexed with one tier, and the queries sampled from it.
type Setup struct {
	Index    *retrieval.Index
	Docs     int
	NumTerms int
	Queries  []string
}

// Load reads f.Corpus, builds the index at f.Rank with the tier option,
// and samples f.Queries documents as queries. name prefixes the progress
// lines written to stderr. The caller closes Index.
func Load(name string, f *Flags, tier retrieval.Option, stderr io.Writer) (*Setup, error) {
	file, err := os.Open(f.Corpus)
	if err != nil {
		return nil, err
	}
	c, err := corpus.ReadJSON(file)
	file.Close()
	if err != nil {
		return nil, err
	}
	if len(c.Docs) == 0 {
		return nil, fmt.Errorf("corpus %s is empty", f.Corpus)
	}
	docs := make([]retrieval.Document, len(c.Docs))
	for i := range c.Docs {
		docs[i] = retrieval.Document{ID: fmt.Sprintf("d%06d", i), Text: docText(&c.Docs[i])}
	}
	fmt.Fprintf(stderr, "%s: indexing %d documents (rank=%d)\n", name, len(docs), f.Rank)
	start := time.Now()
	ix, err := retrieval.Build(docs,
		retrieval.WithRank(f.Rank),
		retrieval.WithEngine(retrieval.EngineRandomized),
		retrieval.WithStopwordRemoval(false),
		retrieval.WithStemming(false),
		tier)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stderr, "%s: index built in %v\n", name, time.Since(start).Round(time.Millisecond))
	rng := rand.New(rand.NewSource(f.Seed))
	s := &Setup{Index: ix, Docs: len(docs), NumTerms: c.NumTerms, Queries: make([]string, f.Queries)}
	for i := range s.Queries {
		s.Queries[i] = docs[rng.Intn(len(docs))].Text
	}
	return s, nil
}

// Pass runs search over every query and returns the mean wall-clock
// nanoseconds per query; out, when non-nil, collects each query's result
// IDs.
func (s *Setup) Pass(out [][]string, search func(q string) ([]retrieval.Result, error)) (float64, error) {
	start := time.Now()
	for i, q := range s.Queries {
		res, err := search(q)
		if err != nil {
			return 0, err
		}
		if out != nil {
			out[i] = make([]string, len(res))
			for j, r := range res {
				out[i][j] = r.ID
			}
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(len(s.Queries)), nil
}

// Probe returns the search Pass runs at a per-request probe budget:
// nprobe cells per quantizer, or the fully exact scan at 0.
func (s *Setup) Probe(ctx context.Context, topN, nprobe int) func(q string) ([]retrieval.Result, error) {
	return func(q string) ([]retrieval.Result, error) {
		ans, err := s.Index.Query(ctx, retrieval.Query{Texts: []string{q}, TopN: topN, NProbe: &nprobe})
		if err != nil {
			return nil, err
		}
		return ans.Results[0], nil
	}
}

// Write encodes the summary v as indented JSON to path, or to stdout when
// path is "-".
func Write(path string, stdout io.Writer, v any) (err error) {
	w := stdout
	if path != "-" {
		f, cerr := os.Create(path)
		if cerr != nil {
			return cerr
		}
		defer func() {
			if cerr := f.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// docText renders a sampled document as text the index pipeline
// preserves verbatim: Tokenize splits on digits, so term IDs become
// letter-only tokens (TermToken).
func docText(d *corpus.Document) string {
	var b strings.Builder
	for i, t := range d.Terms {
		tok := TermToken(t)
		for n := 0; n < d.Counts[i]; n++ {
			b.WriteString(tok)
			b.WriteByte(' ')
		}
	}
	return b.String()
}

// TermToken renders term ID t as "x" plus its decimal digits mapped a–j.
func TermToken(t int) string {
	const letters = "abcdefghij"
	s := strconv.Itoa(t)
	b := make([]byte, 1, len(s)+1)
	b[0] = 'x'
	for i := 0; i < len(s); i++ {
		b = append(b, letters[s[i]-'0'])
	}
	return string(b)
}
