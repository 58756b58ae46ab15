// Command bench is the repository's one benchmark: it generates a corpus
// from the paper's model, builds and saves an index in-process, boots the
// built lsiserve binary on loopback, drives one of four workloads against
// it, checks the answers against a brute-force oracle and prints every
// metric by name. See README.md beside this file. bench/run.sh builds both
// programs and is the way to run this one:
//
//	bash bench/run.sh -workload exact_scan -seed 1              # end-to-end metrics
//	bash bench/run.sh -workload exact_scan -seed 1 -trace 1     # per-layer metrics + ladder
//	bash bench/run.sh -aa 5                                     # A/A: is the benchmark steady?
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: exact_scan, tiered_ann_quant, ingest_mixed or cluster_fanout")
	seed := fs.Int64("seed", 1, "seed of every generated input")
	seconds := fs.Float64("seconds", 0, "measured time, shared by the boots (0 = the scale's default)")
	trace := fs.Int("trace", 0, "1 = traced run: per-layer metrics and the ladder replay instead of the end-to-end metrics")
	quick := fs.Bool("quick", false, "smoke scale: 8 topics x 50 documents")
	aa := fs.Int("aa", 0, "A/A mode: run every workload this many times on this code and compare the two halves")
	serverBin := fs.String("lsiserve", "", "the lsiserve binary to drive, built from this checkout (bench/run.sh builds and passes it)")
	root := fs.String("root", ".", "the checkout: BENCHMARK.json, scratch in .bench_build/, results in bench/out/")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if *serverBin == "" {
		return errors.New("-lsiserve is required: run through bench/run.sh, which builds it")
	}
	sc := scaleDefault
	if *quick {
		sc = scaleQuick
	}
	if *seconds <= 0 {
		*seconds = sc.seconds
	}

	scratch := filepath.Join(*root, ".bench_build")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return err
	}
	// Everything a run writes besides its results lives here and goes
	// when the run ends, however it ends.
	workDir, err := os.MkdirTemp(scratch, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(workDir)
	bin, err := filepath.Abs(*serverBin)
	if err != nil {
		return err
	}
	base := runConfig{sc: sc, seed: *seed, seconds: *seconds, trace: *trace != 0,
		serverBin: bin, workDir: workDir, outDir: filepath.Join(*root, "bench", "out"), log: stderr}

	if *aa > 0 {
		return runAA(ctx, base, *aa, filepath.Join(*root, "BENCHMARK.json"), stdout)
	}
	wl, ok := findWorkload(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	cfg := base
	cfg.wl = wl
	rep, err := runWorkload(ctx, &cfg)
	if err != nil {
		return err
	}
	if err := writeReport(&cfg, rep); err != nil {
		return err
	}
	return printReport(stdout, rep)
}

// writeReport keeps the run, environment stamp included, in
// bench/out/<workload>.json (trace-<workload>.json for a traced run).
func writeReport(cfg *runConfig, rep *report) error {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	name := rep.Workload + ".json"
	if rep.Trace {
		name = "layers-" + name
	}
	return os.WriteFile(filepath.Join(cfg.outDir, name), append(data, '\n'), 0o644)
}
