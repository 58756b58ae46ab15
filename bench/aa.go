package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
)

// benchmarkFile is the part of BENCHMARK.json the A/A mode reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// worseBy is how much worse b is than a, as a share of a, for a metric
// whose better direction is given; negative when b is better.
func worseBy(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// steadiness is what n runs of identical code say about one metric.
type steadiness struct {
	q1, median, q3 float64
	spread         float64 // quartile distance over the median
	halves         float64 // how much worse the second half's median is than the first's; negative = better
	steady         bool
}

// judge holds a metric's values, in run order, to its bound: the spread
// within it, and the two halves' medians within it of each other in
// either direction. A second half that is better by more than the bound
// is as much a benchmark that does not repeat as one that is worse.
func judge(vals []float64, better string, bound float64) steadiness {
	s := steadiness{median: median(vals), spread: spread(vals)}
	s.q1, s.q3 = quartiles(vals)
	s.halves = worseBy(median(vals[:len(vals)/2]), median(vals[len(vals)/2:]), better)
	s.steady = s.spread <= bound && math.Abs(s.halves) <= bound
	return s
}

// runAA runs every workload n times on this one build, each run on its
// own seed and the workload order reversed every round, then holds every
// end-to-end metric on every workload to its bound in BENCHMARK.json. It
// returns an error when any is not steady.
func runAA(ctx context.Context, base runConfig, n int, benchmarkPath string, stdout io.Writer) error {
	if n < 2 {
		return fmt.Errorf("-aa %d: two halves need at least 2 runs", n)
	}
	bf, err := readBenchmarkFile(benchmarkPath)
	if err != nil {
		return err
	}
	series := map[string]map[string][]float64{} // workload → metric → one value per run
	for round := 0; round < n; round++ {
		order := append([]workload(nil), workloads...)
		if round%2 == 1 {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		for _, wl := range order {
			cfg := base
			cfg.wl, cfg.seed, cfg.trace = wl, base.seed+int64(round), false
			cfg.workDir = filepath.Join(base.workDir, fmt.Sprintf("aa-%d-%s", round, wl.name))
			rep, err := runWorkload(ctx, &cfg)
			os.RemoveAll(cfg.workDir)
			if err != nil {
				return fmt.Errorf("%s round %d: %w", wl.name, round, err)
			}
			if !rep.Correct {
				return fmt.Errorf("%s round %d (seed %d): incorrect: %v", wl.name, round, cfg.seed, rep.Reasons)
			}
			if series[wl.name] == nil {
				series[wl.name] = map[string][]float64{}
			}
			for _, m := range []map[string]value{rep.Metrics, rep.Also} {
				for name, v := range m {
					series[wl.name][name] = append(series[wl.name][name], v.Value)
				}
			}
			base.logf("A/A round %d/%d %s done", round+1, n, wl.name)
		}
	}
	bad := 0
	for _, wl := range workloads {
		fmt.Fprintf(stdout, "%s (%d runs, seeds %d..%d)\n", wl.name, n, base.seed, base.seed+int64(n)-1)
		fmt.Fprintf(stdout, "  %-20s %-6s %8s %12s %12s %8s %8s %8s\n", "metric", "unit", "q1", "median", "q3", "spread", "halves", "bound")
		for _, m := range bf.EndToEnd {
			j := judge(series[wl.name][m.Name], m.Better, m.Bound)
			verdict := ""
			if !j.steady {
				verdict = "  UNSTEADY"
				bad++
			}
			fmt.Fprintf(stdout, "  %-20s %-6s %8.6g %12.6g %12.6g %7.2f%% %+7.2f%% %7.3g%%%s\n",
				m.Name, m.Unit, j.q1, j.median, j.q3, 100*j.spread, 100*j.halves, 100*m.Bound, verdict)
		}
		// The speed figures an untraced run has anyway: unbounded, so no verdict.
		for _, m := range perLayer {
			if vals, ok := series[wl.name][m.name]; ok {
				j := judge(vals, m.better, 1)
				fmt.Fprintf(stdout, "  %-20s %-6s %8.6g %12.6g %12.6g %7.2f%% %+7.2f%% %8s\n",
					m.name, m.unit, j.q1, j.median, j.q3, 100*j.spread, 100*j.halves, "-")
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("A/A: %d metric × workload pairs outside their bound on identical code", bad)
	}
	return nil
}
