package repro

// Tier-1 test for the paired-run verdicts of scripts/ledger_pair.sh: fed
// fabricated bench/run.sh outputs through its compare mode, the script
// must fail a bounded metric past its BENCHMARK.json bound, call a metric
// better only at >= 4 of 5 pairs and outside the base's quartile spread,
// and leave everything else ok or flat.

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// ledgerRun fabricates one bench/run.sh output: the set-up log line when
// build is positive, then the metric lines as the benchmark prints them.
func ledgerRun(build float64, metrics map[string]float64) string {
	var b strings.Builder
	if build > 0 {
		fmt.Fprintf(&b, "bench: exact_scan set-up: gen 0.50s build %.2fs save 0.05s export 0.00s boot 0.10s\n", build)
	}
	b.WriteString("workload exact_scan seed 1 scale default: 30000 attempted, 0 failed\n")
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "  %-32s %16.6g %-6s (5 samples)\n", n, metrics[n], "x")
	}
	b.WriteString(`{"correct":true}` + "\n")
	return b.String()
}

// series is one metric's reading per seed on each side.
type series struct {
	name       string
	base, head []float64
}

// runPairs writes the runs of one workload for seeds 1…len(base) and
// returns the exit status and report of the compare mode over them. Every
// run also carries the steady end-to-end metrics the series do not name.
func runPairs(t *testing.T, build [2][]float64, ss ...series) (int, string) {
	t.Helper()
	dir := t.TempDir()
	writePairs(t, dir, build, ss...)
	return compare(t, dir)
}

// writePairs writes the runs runPairs compares into dir.
func writePairs(t *testing.T, dir string, build [2][]float64, ss ...series) {
	t.Helper()
	if err := os.MkdirAll(filepath.Join(dir, "exact_scan"), 0o755); err != nil {
		t.Fatal(err)
	}
	seeds := len(ss[0].base)
	for side, label := range []string{"base", "head"} {
		for s := 0; s < seeds; s++ {
			m := map[string]float64{"setup_s": 1.8, "recall_at_10": 1, "ok_share": 1, "rss_peak_mb": 32, "bench.search_qps": 2000}
			for _, x := range ss {
				v := x.base
				if side == 1 {
					v = x.head
				}
				if s < len(v) {
					m[x.name] = v[s]
				} else {
					delete(m, x.name)
				}
			}
			var bs float64
			if build[side] != nil {
				bs = build[side][s]
			}
			path := filepath.Join(dir, "exact_scan", fmt.Sprintf("%s-%d.txt", label, s+1))
			if err := os.WriteFile(path, []byte(ledgerRun(bs, m)), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// compare returns the exit status and report of the compare mode on dir.
func compare(t *testing.T, dir string) (int, string) {
	t.Helper()
	out, err := exec.Command("sh", "scripts/ledger_pair.sh", "--compare", dir).CombinedOutput()
	if err == nil {
		return 0, string(out)
	}
	if ee, ok := err.(*exec.ExitError); ok {
		return ee.ExitCode(), string(out)
	}
	t.Fatalf("ledger_pair.sh did not run: %v\n%s", err, out)
	return -1, ""
}

// row returns the report line of one metric.
func row(t *testing.T, report, name string) string {
	t.Helper()
	for _, l := range strings.Split(report, "\n") {
		if f := strings.Fields(l); len(f) > 0 && f[0] == name {
			return l
		}
	}
	t.Fatalf("no row for %s in:\n%s", name, report)
	return ""
}

func TestLedgerPairVerdicts(t *testing.T) {
	base := []float64{1.80, 1.95, 1.70, 1.90, 1.85}
	scaled := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	cases := []struct {
		name     string
		series   series
		build    [2][]float64
		metric   string // the row to check; "" means series.name
		wantExit int
		wantRow  string
	}{
		{
			name:     "set-up faster at every pair is better",
			series:   series{"setup_s", base, scaled(base, 0.7)},
			wantExit: 0,
			wantRow:  "better",
		},
		{
			name:     "set-up 20 % slower fails its 15 % bound",
			series:   series{"setup_s", base, scaled(base, 1.2)},
			wantExit: 1,
			wantRow:  "WORSE (beyond 15% bound)",
		},
		{
			name:     "set-up 5 % slower at every pair is within its bound",
			series:   series{"setup_s", base, scaled(base, 1.05)},
			wantExit: 0,
			wantRow:  " ok",
		},
		{
			name:     "a recall drop past 0.005 fails",
			series:   series{"recall_at_10", []float64{1, 1, 1, 1, 1}, []float64{0.99, 0.99, 0.99, 0.99, 0.99}},
			wantExit: 1,
			wantRow:  "WORSE",
		},
		{
			name:     "one failed request in 25,000 in most runs fails ok_share",
			series:   series{"ok_share", []float64{1, 1, 1, 1, 1}, []float64{0.99996, 1, 0.99996, 1, 0.99996}},
			wantExit: 1,
			wantRow:  "WORSE",
		},
		{
			name:     "an unbounded gain at 3 of 5 pairs is flat",
			series:   series{"bench.search_p50_ms", []float64{1.1, 1.2, 1.0, 1.1, 1.3}, []float64{0.8, 0.9, 0.7, 1.2, 1.4}},
			wantExit: 0,
			wantRow:  "flat",
		},
		{
			name:     "an unbounded gain at 5 of 5 pairs inside the base's spread is flat",
			series:   series{"bench.search_qps", []float64{1000, 1500, 2000, 2500, 3000}, []float64{1100, 1600, 2100, 2600, 3100}},
			wantExit: 0,
			wantRow:  "flat",
		},
		{
			name:     "an unbounded gain at 4 of 5 pairs outside the spread is better",
			series:   series{"bench.search_qps", []float64{2000, 2010, 1990, 2005, 1995}, []float64{2400, 2500, 2450, 1900, 2420}},
			wantExit: 0,
			wantRow:  "better",
		},
		{
			name:     "an unbounded loss at every pair is worse but does not fail",
			series:   series{"bench.search_p99_ms", []float64{3.0, 3.1, 2.9, 3.0, 3.2}, []float64{4.0, 4.1, 3.9, 4.2, 4.0}},
			wantExit: 0,
			wantRow:  "worse",
		},
		{
			name:     "the set-up log's build time is a row",
			series:   series{"setup_s", base, base},
			build:    [2][]float64{{1.25, 1.30, 1.22, 1.37, 1.28}, {0.65, 0.70, 0.64, 0.72, 0.66}},
			metric:   "setup.build_s",
			wantExit: 0,
			wantRow:  "better",
		},
		{
			name:     "a seed missing on one side is left out of the pairs",
			series:   series{"setup_s", base, scaled(base, 0.7)[:4]},
			wantExit: 0,
			wantRow:  "   4 ",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			exit, out := runPairs(t, tc.build, tc.series)
			if exit != tc.wantExit {
				t.Fatalf("exit = %d, want %d\n%s", exit, tc.wantExit, out)
			}
			metric := tc.metric
			if metric == "" {
				metric = tc.series.name
			}
			if r := row(t, out, metric); !strings.Contains(r, tc.wantRow) {
				t.Fatalf("row %q does not contain %q\n%s", r, tc.wantRow, out)
			}
		})
	}
}

// TestLedgerPairQPSBesideRSS pins the row order: bench.search_qps right
// under rss_peak_mb, so a memory reading is read with its rate.
func TestLedgerPairQPSBesideRSS(t *testing.T) {
	_, out := runPairs(t, [2][]float64{}, series{"rss_peak_mb", []float64{32, 32, 32}, []float64{32, 32, 32}})
	lines := strings.Split(out, "\n")
	for i, l := range lines {
		if strings.HasPrefix(l, "rss_peak_mb ") {
			if i+1 >= len(lines) || !strings.HasPrefix(lines[i+1], "bench.search_qps ") {
				t.Fatalf("the row under rss_peak_mb is not bench.search_qps:\n%s", out)
			}
			return
		}
	}
	t.Fatalf("no rss_peak_mb row:\n%s", out)
}

// TestLedgerPairFlagsUnevenLoad seeds the .load files a run records
// beside its output: each pair's load line shows the share of the box CPU
// spent outside each side's run and the steal share, and a pair whose
// sides differ by more than 10 points of outside share or 5 of steal is
// flagged, without changing the verdicts or the exit status.
func TestLedgerPairFlagsUnevenLoad(t *testing.T) {
	dir := t.TempDir()
	writePairs(t, dir, [2][]float64{}, series{"setup_s", []float64{1.8, 1.9, 1.7}, []float64{1.8, 1.9, 1.7}})
	// total, busy, steal and tree ticks per side and seed.
	loads := map[string]string{
		"base-1": "ticks 1000 520 0 500", "head-1": "ticks 1000 540 10 520", // 2 % and 2 % outside
		"base-2": "ticks 1000 510 0 500", "head-2": "ticks 1000 900 0 500", // 1 % against 40 %
		"base-3": "ticks 1000 500 0 500", "head-3": "ticks 1000 580 80 500", // steal 0 % against 8 %
	}
	for name, ticks := range loads {
		data := "load1 0.52 0.97\n" + ticks + "\n"
		if err := os.WriteFile(filepath.Join(dir, "exact_scan", name+".load"), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	exit, out := compare(t, dir)
	if exit != 0 {
		t.Fatalf("exit = %d, want 0\n%s", exit, out)
	}
	for seed, want := range map[string]string{
		"1": "base   2.0%   0.0% 0.52   head   2.0%   1.0% 0.52",
		"2": "base   1.0%   0.0% 0.52   head  40.0%   0.0% 0.52  DIFFERENT LOAD",
		"3": "base   0.0%   0.0% 0.52   head   8.0%   8.0% 0.52  DIFFERENT LOAD",
	} {
		var line string
		for _, l := range strings.Split(out, "\n") {
			if f := strings.Fields(l); len(f) > 1 && f[0] == "seed" && f[1] == seed {
				line = l
			}
		}
		if !strings.HasSuffix(line, want) {
			t.Errorf("seed %s: load line %q, want it to end %q\n%s", seed, line, want, out)
		}
	}
}

func TestLedgerPairInfraErrors(t *testing.T) {
	for _, args := range [][]string{{"--compare", t.TempDir()}, {}, {"--compare"}} {
		err := exec.Command("sh", append([]string{"scripts/ledger_pair.sh"}, args...)...).Run()
		if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
			t.Errorf("%v: exit = %v, want 2", args, err)
		}
	}
}
