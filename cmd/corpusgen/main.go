// Command corpusgen samples synthetic corpora from the paper's
// probabilistic corpus model (Section 3) and writes them in the JSON-lines
// format of corpus.WriteJSON (one header object, then one object per
// document), for use by external tools or for inspecting the model.
//
// Usage:
//
//	corpusgen [-docs 1000] [-topics 20] [-terms-per-topic 100] [-eps 0.05]
//	          [-minlen 50] [-maxlen 100] [-mixture] [-seed 1] [-o corpus.jsonl]
//	corpusgen -topics 128 -docs-per-topic 800 -eps 0.1    # balanced 102400-doc corpus
//
// Scale is set either by -docs (topics drawn uniformly at random, so
// per-topic counts fluctuate) or by -docs-per-topic, which deals topics
// round-robin for exactly that many documents per topic — the balanced
// regime the paper's theorems assume, and the distribution the ANN
// and quantized smoke tests (scripts/tier_smoke.sh) measure against. -eps is
// the model's noise knob: the probability mass each topic spreads
// uniformly over the whole term universe instead of its primary set.
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"

	"repro/internal/corpus"
)

func main() {
	docs := flag.Int("docs", 1000, "number of documents (topics drawn uniformly at random)")
	docsPerTopic := flag.Int("docs-per-topic", 0, "balanced scale: exactly this many documents per topic, dealt round-robin (overrides -docs; incompatible with -mixture)")
	topics := flag.Int("topics", 20, "number of topics")
	termsPer := flag.Int("terms-per-topic", 100, "primary terms per topic")
	eps := flag.Float64("eps", 0.05, "separability epsilon: the noise mass each topic spreads over the whole term universe")
	minLen := flag.Int("minlen", 50, "minimum document length")
	maxLen := flag.Int("maxlen", 100, "maximum document length")
	mixture := flag.Bool("mixture", false, "sample multi-topic documents (Dirichlet mixtures of up to 3 topics)")
	seed := flag.Int64("seed", 1, "random seed")
	out := flag.String("o", "-", "output path ('-' for stdout)")
	flag.Parse()

	cfg := corpus.SeparableConfig{
		NumTopics: *topics, TermsPerTopic: *termsPer,
		Epsilon: *eps, MinLen: *minLen, MaxLen: *maxLen,
	}
	var (
		model *corpus.Model
		err   error
	)
	if *mixture {
		if *docsPerTopic > 0 {
			fatal(fmt.Errorf("-docs-per-topic deals single-topic documents; it cannot apply with -mixture"))
		}
		maxT := 3
		if maxT > *topics {
			maxT = *topics
		}
		model, err = corpus.MixedSeparableModel(cfg, maxT, 0.8)
	} else {
		model, err = corpus.PureSeparableModel(cfg)
	}
	if err != nil {
		fatal(err)
	}
	count := *docs
	if *docsPerTopic > 0 {
		count = *topics * *docsPerTopic
		model.Sampler = &corpus.RoundRobinSampler{NumTopics: *topics, MinLen: *minLen, MaxLen: *maxLen}
	}
	c, err := corpus.Generate(model, count, rand.New(rand.NewSource(*seed)))
	if err != nil {
		fatal(err)
	}

	var w io.Writer = os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				fatal(err)
			}
		}()
		w = f
	}
	if err := corpus.WriteJSON(w, c); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "corpusgen: wrote %d documents over %d terms (topics=%d eps=%g seed=%d)\n",
		len(c.Docs), c.NumTerms, *topics, *eps, *seed)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "corpusgen: %v\n", err)
	os.Exit(1)
}
