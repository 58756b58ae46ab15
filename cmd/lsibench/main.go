// Command lsibench reproduces the paper's tables, figures, and
// theorem-shaped claims from the command line. Each subcommand runs one
// experiment from internal/experiments and prints its table; `all` runs the
// full suite (as used to populate EXPERIMENTS.md).
//
// Usage:
//
//	lsibench <experiment> [-small] [-json] [flags]
//	lsibench all [-small] [-json]
//	lsibench list
//
// -json emits machine-readable results (experiment name, wall-clock
// elapsed seconds, rendered table lines) so perf and output can be
// diffed across commits without parsing tables. -small and -json are
// accepted by every experiment; only table1 has flags of its own, and an
// argument an experiment has no use for fails with exit status 2.
//
// Experiments: table1, thm2, thm3, lemma1, jl, thm5, runtime, synonymy,
// thm6, retrieval, cf, mixture, drift, ablate-weighting, ablate-projection,
// ablate-engine.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/experiments"
)

// experiment is one runnable entry: a description and a runner that parses
// its own flags from args into fs and returns the rendered table.
type experiment struct {
	desc string
	run  func(fs *flag.FlagSet, args []string, small bool) (string, error)
}

// tabled is what every experiment result renders to.
type tabled interface{ Table() string }

// sized is an experiment with a default and a test-sized configuration
// (-small) and no flags of its own.
func sized[C any, R tabled](desc string, def, small func() C, run func(C) (R, error)) experiment {
	return experiment{desc: desc, run: func(fs *flag.FlagSet, args []string, s bool) (string, error) {
		if err := parse(fs, args); err != nil {
			return "", err
		}
		cfg := def()
		if s {
			cfg = small()
		}
		return table(run(cfg))
	}}
}

// fixed is an experiment with one configuration.
func fixed[R tabled](desc string, run func() (R, error)) experiment {
	return experiment{desc: desc, run: func(fs *flag.FlagSet, args []string, _ bool) (string, error) {
		if err := parse(fs, args); err != nil {
			return "", err
		}
		return table(run())
	}}
}

func table[R tabled](res R, err error) (string, error) {
	if err != nil {
		return "", err
	}
	return res.Table(), nil
}

// usageError is a command line lsibench refuses: run exits 2 on it.
type usageError struct{ error }

func (e usageError) Unwrap() error { return e.error }

// parse reads an experiment's flags (most have none) and refuses every
// argument it would otherwise ignore.
func parse(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		return usageError{err}
	}
	if fs.NArg() > 0 {
		return usageError{fmt.Errorf("unexpected argument %q", fs.Arg(0))}
	}
	return nil
}

var registry = map[string]experiment{
	"table1": {
		desc: "§4 experiment table: intratopic/intertopic angles, original vs LSI space",
		run: func(fs *flag.FlagSet, args []string, small bool) (string, error) {
			cfg := experiments.DefaultTable1Config()
			if small {
				cfg = experiments.SmallTable1Config()
			}
			hist := false
			fs.IntVar(&cfg.NumDocs, "docs", cfg.NumDocs, "number of documents")
			fs.IntVar(&cfg.Corpus.NumTopics, "topics", cfg.Corpus.NumTopics, "number of topics")
			fs.IntVar(&cfg.Corpus.TermsPerTopic, "terms-per-topic", cfg.Corpus.TermsPerTopic, "primary terms per topic")
			fs.Float64Var(&cfg.Corpus.Epsilon, "eps", cfg.Corpus.Epsilon, "separability epsilon")
			fs.IntVar(&cfg.K, "k", cfg.K, "LSI rank")
			fs.Int64Var(&cfg.Seed, "seed", cfg.Seed, "random seed")
			fs.BoolVar(&hist, "hist", false, "append angle-distribution histograms")
			if err := parse(fs, args); err != nil {
				return "", err
			}
			res, err := experiments.RunTable1(cfg)
			if err != nil {
				return "", err
			}
			if hist {
				return res.Table() + "\n" + res.Figure(), nil
			}
			return res.Table(), nil
		},
	},
	"thm2": sized("Theorem 2: 0-separable pure corpora give (near-)0-skewed rank-k LSI",
		experiments.DefaultTheorem2Config, experiments.SmallTheorem2Config, experiments.RunTheorem2),
	"thm3": sized("Theorem 3: skew grows O(eps) with separability eps",
		experiments.DefaultTheorem3Config, experiments.SmallTheorem3Config, experiments.RunTheorem3),
	"lemma1": fixed("Lemma 1/4: invariant subspace stability under bounded perturbation",
		func() (*experiments.Lemma1Result, error) {
			return experiments.RunLemma1(experiments.DefaultLemma1Config())
		}),
	"jl": sized("Lemma 2: Johnson–Lindenstrauss distance preservation",
		experiments.DefaultJLConfig, experiments.SmallJLConfig, experiments.RunJL),
	"thm5": sized("Theorem 5: two-step (random projection + rank-2k LSI) residual bound",
		experiments.DefaultTheorem5Config, experiments.SmallTheorem5Config, experiments.RunTheorem5),
	"runtime": sized("§5 running-time comparison: direct LSI vs two-step",
		experiments.DefaultRuntimeConfig, func() experiments.RuntimeConfig {
			cfg := experiments.DefaultRuntimeConfig()
			cfg.Corpora, cfg.NumDocs = cfg.Corpora[:2], cfg.NumDocs[:2]
			return cfg
		}, experiments.RunRuntime),
	"synonymy": sized("§4 synonymy: identical co-occurrence pairs are projected out",
		experiments.DefaultSynonymyConfig, experiments.SmallSynonymyConfig, experiments.RunSynonymy),
	"thm6": sized("Theorem 6: spectral discovery of high-conductance subgraphs",
		experiments.DefaultTheorem6Config, experiments.SmallTheorem6Config, experiments.RunTheorem6),
	"retrieval": sized("§1 claim: LSI beats the vector-space model under synonymy",
		experiments.DefaultRetrievalConfig, experiments.SmallRetrievalConfig, experiments.RunRetrieval),
	"cf": sized("§6 collaborative filtering: LSI recommender vs popularity",
		experiments.DefaultCFConfig, experiments.SmallCFConfig, experiments.RunCF),
	"style": sized("Definition 3 probe: cross-topic style strength vs LSI separation",
		experiments.DefaultStyleConfig, experiments.SmallStyleConfig, experiments.RunStyle),
	"sampling": sized("§5 discussion: document-sampled LSI vs random projection",
		experiments.DefaultSamplingConfig, experiments.SmallSamplingConfig, experiments.RunSampling),
	"polysemy": sized("Open question (§6): does LSI address polysemy?",
		experiments.DefaultPolysemyConfig, experiments.SmallPolysemyConfig, experiments.RunPolysemy),
	"drift": sized("ROADMAP 10(b): fold-in vs re-decomposed tails, and the residual-share drift signal",
		experiments.DefaultDriftConfig, experiments.SmallDriftConfig, experiments.RunDrift),
	"mixture": sized("Open question after Thm 2: multi-topic documents",
		experiments.DefaultMixtureConfig, experiments.SmallMixtureConfig, experiments.RunMixture),
	"ablate-weighting": sized("Ablation: §2 remark that the count function does not matter",
		func() experiments.Table1Config {
			cfg := experiments.DefaultTable1Config()
			cfg.NumDocs = 400 // keep the 4 SVDs affordable
			return cfg
		}, experiments.SmallTable1Config, experiments.RunWeightingAblation),
	"ablate-projection": sized("Ablation: projection family (orthonormal/gaussian/sign)",
		experiments.DefaultTheorem5Config, experiments.SmallTheorem5Config, experiments.RunProjectionAblation),
	"ablate-engine": fixed("Ablation: SVD engine accuracy and time",
		func() (*experiments.EngineAblationResult, error) { return experiments.RunEngineAblation(13) }),
	"ablate-lanczos": fixed("Ablation: Lanczos dimension p vs accuracy",
		func() (*experiments.LanczosDimAblationResult, error) { return experiments.RunLanczosDimAblation(17) }),
	"ablate-randomized": fixed("Ablation: randomized SVD power/oversampling vs accuracy",
		func() (*experiments.RandomizedParamAblationResult, error) {
			return experiments.RunRandomizedParamAblation(17)
		}),
}

// jsonResult is one experiment's machine-readable outcome — the envelope
// future PRs diff for perf regressions (-json flag) without parsing the
// rendered tables.
type jsonResult struct {
	Experiment string `json:"experiment"`
	// ElapsedSeconds is the wall-clock time of the experiment run — the
	// number perf-trajectory diffs care about.
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	Small          bool    `json:"small"`
	// Output is the rendered result table, line by line.
	Output []string `json:"output"`
}

// runTimed executes one experiment and wraps its outcome for -json.
func runTimed(name string, args []string, small bool, stderr io.Writer) (jsonResult, error) {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	start := time.Now()
	out, err := registry[name].run(fs, args, small)
	if err != nil {
		return jsonResult{}, err
	}
	return jsonResult{
		Experiment:     name,
		ElapsedSeconds: time.Since(start).Seconds(),
		Small:          small,
		Output:         strings.Split(out, "\n"),
	}, nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes one lsibench command line and returns its exit status: 0,
// 1 when an experiment fails, 2 when the command line is refused.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) < 1 {
		usage(stderr)
		return 2
	}
	cmd, names := args[0], args[:1]
	switch _, ok := registry[cmd]; {
	case cmd == "list" || cmd == "help" || cmd == "-h" || cmd == "--help":
		usage(stdout)
		return 0
	case cmd == "all":
		names = sortedNames()
	case !ok:
		fmt.Fprintf(stderr, "lsibench: unknown experiment %q\n\n", cmd)
		usage(stderr)
		return 2
	}
	small := false
	asJSON := false
	// -small and -json are accepted anywhere, for every experiment.
	var rest []string
	for _, a := range args[1:] {
		switch a {
		case "-small", "--small":
			small = true
		case "-json", "--json":
			asJSON = true
		default:
			rest = append(rest, a)
		}
	}
	if cmd == "all" && len(rest) > 0 {
		fmt.Fprintf(stderr, "lsibench all: unexpected argument %q\n", rest[0])
		return 2
	}
	var results []jsonResult
	for _, name := range names {
		if cmd == "all" && !asJSON {
			fmt.Fprintf(stdout, "==== %s ====\n", name)
		}
		res, err := runTimed(name, rest, small, stderr)
		switch {
		case errors.Is(err, flag.ErrHelp):
			return 0
		case errors.As(err, new(usageError)):
			fmt.Fprintf(stderr, "lsibench %s: %v\n", name, err)
			return 2
		case err != nil:
			fmt.Fprintf(stderr, "lsibench %s: %v\n", name, err)
			return 1
		}
		if !asJSON {
			fmt.Fprintln(stdout, strings.Join(res.Output, "\n"))
		}
		results = append(results, res)
	}
	if !asJSON {
		return 0
	}
	var v any = results
	if cmd != "all" {
		v = results[0]
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		fmt.Fprintf(stderr, "lsibench: encoding results: %v\n", err)
		return 1
	}
	return 0
}

func sortedNames() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func usage(w io.Writer) {
	fmt.Fprintln(w, "lsibench — reproduce the experiments of \"Latent Semantic Indexing: A Probabilistic Analysis\"")
	fmt.Fprintln(w, "\nusage: lsibench <experiment> [-small] [-json] [flags]")
	fmt.Fprintln(w, "       lsibench all [-small] [-json]")
	fmt.Fprintln(w, "\nexperiments:")
	for _, n := range sortedNames() {
		fmt.Fprintf(w, "  %-18s %s\n", n, registry[n].desc)
	}
}
