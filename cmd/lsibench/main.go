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
// diffed across commits without parsing tables.
//
// Experiments: table1, thm2, thm3, lemma1, jl, thm5, runtime, synonymy,
// thm6, retrieval, cf, mixture, drift, ablate-weighting, ablate-projection,
// ablate-engine.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/experiments"
)

// experiment is one runnable entry: a description and a runner that parses
// its own flags from args and returns the rendered table.
type experiment struct {
	desc string
	run  func(args []string, small bool) (string, error)
}

// tabled is what every experiment result renders to.
type tabled interface{ Table() string }

// sized is an experiment with a default and a test-sized configuration
// (-small) and no flags of its own.
func sized[C any, R tabled](desc string, def, small func() C, run func(C) (R, error)) experiment {
	return experiment{desc: desc, run: func(_ []string, s bool) (string, error) {
		cfg := def()
		if s {
			cfg = small()
		}
		return table(run(cfg))
	}}
}

// fixed is an experiment with one configuration.
func fixed[R tabled](desc string, run func() (R, error)) experiment {
	return experiment{desc: desc, run: func([]string, bool) (string, error) { return table(run()) }}
}

func table[R tabled](res R, err error) (string, error) {
	if err != nil {
		return "", err
	}
	return res.Table(), nil
}

var registry = map[string]experiment{
	"table1": {
		desc: "§4 experiment table: intratopic/intertopic angles, original vs LSI space",
		run: func(args []string, small bool) (string, error) {
			cfg := experiments.DefaultTable1Config()
			if small {
				cfg = experiments.SmallTable1Config()
			}
			hist := false
			fs := flag.NewFlagSet("table1", flag.ContinueOnError)
			fs.IntVar(&cfg.NumDocs, "docs", cfg.NumDocs, "number of documents")
			fs.IntVar(&cfg.Corpus.NumTopics, "topics", cfg.Corpus.NumTopics, "number of topics")
			fs.IntVar(&cfg.Corpus.TermsPerTopic, "terms-per-topic", cfg.Corpus.TermsPerTopic, "primary terms per topic")
			fs.Float64Var(&cfg.Corpus.Epsilon, "eps", cfg.Corpus.Epsilon, "separability epsilon")
			fs.IntVar(&cfg.K, "k", cfg.K, "LSI rank")
			fs.Int64Var(&cfg.Seed, "seed", cfg.Seed, "random seed")
			fs.BoolVar(&hist, "hist", false, "append angle-distribution histograms")
			if err := fs.Parse(args); err != nil {
				return "", err
			}
			if hist {
				res, fig, err := experiments.RunTable1WithFigure(cfg)
				if err != nil {
					return "", err
				}
				return res.Table() + "\n" + fig, nil
			}
			res, err := experiments.RunTable1(cfg)
			if err != nil {
				return "", err
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
func runTimed(name string, args []string, small bool) (jsonResult, error) {
	start := time.Now()
	out, err := registry[name].run(args, small)
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

func emitJSON(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		fmt.Fprintf(os.Stderr, "lsibench: encoding results: %v\n", err)
		os.Exit(1)
	}
}

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd := os.Args[1]
	switch cmd {
	case "list", "help", "-h", "--help":
		usage()
		return
	case "all":
		small := false
		asJSON := false
		fs := flag.NewFlagSet("all", flag.ExitOnError)
		fs.BoolVar(&small, "small", false, "run scaled-down configurations")
		fs.BoolVar(&asJSON, "json", false, "emit machine-readable JSON results")
		if err := fs.Parse(os.Args[2:]); err != nil {
			os.Exit(2)
		}
		var results []jsonResult
		for _, name := range sortedNames() {
			if !asJSON {
				fmt.Printf("==== %s ====\n", name)
			}
			res, err := runTimed(name, nil, small)
			if err != nil {
				fmt.Fprintf(os.Stderr, "lsibench %s: %v\n", name, err)
				os.Exit(1)
			}
			if asJSON {
				results = append(results, res)
			} else {
				fmt.Println(strings.Join(res.Output, "\n"))
			}
		}
		if asJSON {
			emitJSON(results)
		}
		return
	}
	if _, ok := registry[cmd]; !ok {
		fmt.Fprintf(os.Stderr, "lsibench: unknown experiment %q\n\n", cmd)
		usage()
		os.Exit(2)
	}
	args := os.Args[2:]
	small := false
	asJSON := false
	// Leading -small / -json flags are accepted for every experiment.
	filtered := args[:0:0]
	for _, a := range args {
		switch a {
		case "-small", "--small":
			small = true
		case "-json", "--json":
			asJSON = true
		default:
			filtered = append(filtered, a)
		}
	}
	res, err := runTimed(cmd, filtered, small)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lsibench %s: %v\n", cmd, err)
		os.Exit(1)
	}
	if asJSON {
		emitJSON(res)
		return
	}
	fmt.Println(strings.Join(res.Output, "\n"))
}

func sortedNames() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func usage() {
	fmt.Println("lsibench — reproduce the experiments of \"Latent Semantic Indexing: A Probabilistic Analysis\"")
	fmt.Println("\nusage: lsibench <experiment> [-small] [-json] [flags]")
	fmt.Println("       lsibench all [-small] [-json]")
	fmt.Println("\nexperiments:")
	for _, n := range sortedNames() {
		fmt.Printf("  %-18s %s\n", n, registry[n].desc)
	}
}
