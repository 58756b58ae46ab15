package repro

// Tier-1 test for the CI perf-regression gate: scripts/bench_gate.sh in
// compare mode must pass on parity, fail on a seeded ns/op regression
// past the threshold, fail on any allocs/op growth, and fail when a
// gated benchmark disappears — demonstrating the acceptance criterion
// without running real benchmarks (run mode is the same comparator fed
// by two `go test -bench` invocations).

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// benchLines fabricates a 3-run `go test -bench` output for one
// benchmark in one package.
func benchLines(pkg, name string, ns [3]int, allocs int) string {
	return benchRuns(pkg, name, ns, [3]int{allocs, allocs, allocs})
}

// benchRuns is benchLines with an allocation count per run.
func benchRuns(pkg, name string, ns, allocs [3]int) string {
	var b strings.Builder
	b.WriteString("pkg: " + pkg + "\n")
	for i, n := range ns {
		b.WriteString(benchLine(name, n, allocs[i]))
	}
	return b.String()
}

func benchLine(name string, ns, allocs int) string {
	return name + "-4 \t 100000\t " + strings.Join([]string{itoa(ns), "ns/op\t 48 B/op\t", itoa(allocs), "allocs/op"}, " ") + "\n"
}

// gateRow is one benchmark's three runs.
type gateRow struct {
	pkg, name string
	ns        [3]int
}

// interleaved fabricates what run mode writes for one side: three runs,
// each a block per package in turn (a `pkg:` header and one line), so a
// benchmark's runs are spread over three blocks.
func interleaved(rows ...gateRow) string {
	var b strings.Builder
	for run := 0; run < 3; run++ {
		for _, r := range rows {
			b.WriteString("pkg: " + r.pkg + "\n" + benchLine(r.name, r.ns[run], 1))
		}
	}
	return b.String()
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	digits := ""
	for n > 0 {
		digits = string(rune('0'+n%10)) + digits
		n /= 10
	}
	return digits
}

// runGate runs the gate in compare mode on base and head, and with a
// confirm pass on the second pair when confirm holds one.
func runGate(t *testing.T, dir, base, head string, confirm ...string) (int, string) {
	t.Helper()
	args := []string{"scripts/bench_gate.sh", "-o", filepath.Join(dir, "report.txt")}
	for i, text := range append([]string{base, head}, confirm...) {
		path := filepath.Join(dir, itoa(i)+".txt")
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		args = append(args, []string{"-a", "-b", "-x", "-y"}[i], path)
	}
	cmd := exec.Command("sh", args...)
	out, err := cmd.CombinedOutput()
	if err == nil {
		return 0, string(out)
	}
	if ee, ok := err.(*exec.ExitError); ok {
		return ee.ExitCode(), string(out)
	}
	t.Fatalf("bench_gate.sh did not run: %v\n%s", err, out)
	return -1, ""
}

func TestBenchGateVerdicts(t *testing.T) {
	base := benchLines("repro", "BenchmarkQueryLatency", [3]int{11000, 11200, 10900}, 1) +
		benchLines("repro/internal/vsm", "BenchmarkSearchShortQuery", [3]int{1500, 1520, 1480}, 1)

	// A Build-kernel benchmark of the default gate set, for the rows that
	// need one on both sides.
	qr := func(ns [3]int) string {
		return benchLines("repro/internal/mat", "BenchmarkQRInPlaceLedgerShape", ns, 40)
	}

	cases := []struct {
		name     string
		base     string // "" means the two-benchmark base above
		head     string
		wantExit int
		wantIn   string
	}{
		{
			// Within threshold both ways: +4.5% on one, a speedup on the other.
			name: "parity passes",
			head: benchLines("repro", "BenchmarkQueryLatency", [3]int{11500, 11400, 11600}, 1) +
				benchLines("repro/internal/vsm", "BenchmarkSearchShortQuery", [3]int{1400, 1390, 1410}, 1),
			wantExit: 0,
			wantIn:   "bench_gate: PASS",
		},
		{
			name: "seeded ns/op regression fails",
			head: benchLines("repro", "BenchmarkQueryLatency", [3]int{15000, 15200, 14900}, 1) +
				benchLines("repro/internal/vsm", "BenchmarkSearchShortQuery", [3]int{1500, 1510, 1490}, 1),
			wantExit: 1,
			wantIn:   "FAIL (ns/op",
		},
		{
			name: "one noisy outlier run does not fail the median",
			head: benchLines("repro", "BenchmarkQueryLatency", [3]int{11000, 30000, 10900}, 1) +
				benchLines("repro/internal/vsm", "BenchmarkSearchShortQuery", [3]int{1500, 1510, 1490}, 1),
			wantExit: 0,
			wantIn:   "bench_gate: PASS",
		},
		{
			name: "any allocs/op growth fails",
			head: benchLines("repro", "BenchmarkQueryLatency", [3]int{11000, 11100, 10900}, 2) +
				benchLines("repro/internal/vsm", "BenchmarkSearchShortQuery", [3]int{1500, 1510, 1490}, 1),
			wantExit: 1,
			wantIn:   "FAIL (allocs/op 1 -> 2)",
		},
		{
			name:     "disappeared benchmark fails",
			head:     benchLines("repro", "BenchmarkQueryLatency", [3]int{11000, 11100, 10900}, 1),
			wantExit: 1,
			wantIn:   "FAIL (benchmark disappeared)",
		},
		{
			name: "new benchmark is not a regression",
			head: benchLines("repro", "BenchmarkQueryLatency", [3]int{11000, 11100, 10900}, 1) +
				benchLines("repro/internal/vsm", "BenchmarkSearchShortQuery", [3]int{1500, 1510, 1490}, 1) +
				benchLines("repro/retrieval", "BenchmarkCachedQueryHit", [3]int{230, 233, 229}, 1),
			wantExit: 0,
			wantIn:   "ok (new benchmark)",
		},
		{
			// A gated package gains a benchmark the base never had (sub-benchmark
			// names carry "/" and "="): reported, not failed, beside the rows
			// that do compare.
			name:     "benchmark with no row at the base is new",
			head:     base + benchLines("repro/internal/segment", "BenchmarkCompactLedgerShape/docs=128", [3]int{32000000, 31000000, 38000000}, 574),
			wantExit: 0,
			wantIn:   "repro/internal/segment.BenchmarkCompactLedgerShape/docs=128-4",
		},
		{
			// The composed IVF ∘ int8 route at the ledger's shape: its scan
			// closures are gone, so any allocation coming back fails the gate.
			name:     "allocation regrowth on a tier route fails",
			base:     base + benchLines("repro/internal/segment", "BenchmarkSearchRoutes/composed", [3]int{190000, 170000, 210000}, 1),
			head:     base + benchLines("repro/internal/segment", "BenchmarkSearchRoutes/composed", [3]int{185000, 175000, 200000}, 4),
			wantExit: 1,
			wantIn:   "FAIL (allocs/op 1 -> 4)",
		},
		{
			// The orthonormalisation under every index build, +35 %.
			name:     "seeded Build-kernel regression fails",
			base:     base + qr([3]int{91000000, 93000000, 90000000}),
			head:     base + qr([3]int{123000000, 125000000, 121000000}),
			wantExit: 1,
			wantIn:   "FAIL (ns/op +35.",
		},
		{
			// Allocations compare by minimum: a worker pool's count that reads
			// 310–312 on either side (the median would read 310 -> 311) passes.
			name:     "allocs/op that drift run to run compare by their minimum",
			base:     base + benchRuns("repro/internal/svd", "BenchmarkRandomizedK50Parallel", [3]int{9e6, 9e6, 9e6}, [3]int{310, 310, 312}),
			head:     base + benchRuns("repro/internal/svd", "BenchmarkRandomizedK50Parallel", [3]int{9e6, 9e6, 9e6}, [3]int{311, 311, 310}),
			wantExit: 0,
			wantIn:   "bench_gate: PASS",
		},
		{
			// Run mode writes each run as a block per package; a benchmark's
			// runs pool across the blocks, so a regression in every run fails.
			name: "interleaved per-run blocks pool into one median",
			base: interleaved(gateRow{"repro", "BenchmarkQueryLatency", [3]int{11000, 11200, 10900}},
				gateRow{"repro/internal/vsm", "BenchmarkSearchShortQuery", [3]int{1500, 1520, 1480}}),
			head: interleaved(gateRow{"repro", "BenchmarkQueryLatency", [3]int{11100, 11000, 10800}},
				gateRow{"repro/internal/vsm", "BenchmarkSearchShortQuery", [3]int{2000, 1990, 2010}}),
			wantExit: 1,
			wantIn:   "FAIL (ns/op +33.",
		},
		{
			// The one document scorer under every exact scan and rerank, at
			// the ledger's rank, +30 %.
			name:     "seeded DotNorm32 regression fails",
			base:     base + benchLines("repro/internal/mat", "BenchmarkDotNorm32/k=64", [3]int{1200000, 1210000, 1190000}, 0),
			head:     base + benchLines("repro/internal/mat", "BenchmarkDotNorm32/k=64", [3]int{1560000, 1570000, 1550000}, 0),
			wantExit: 1,
			wantIn:   "FAIL (ns/op +30.",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.base == "" {
				tc.base = base
			}
			exit, out := runGate(t, t.TempDir(), tc.base, tc.head)
			if exit != tc.wantExit {
				t.Fatalf("exit = %d, want %d\n%s", exit, tc.wantExit, out)
			}
			if !strings.Contains(out, tc.wantIn) {
				t.Fatalf("report missing %q:\n%s", tc.wantIn, out)
			}
		})
	}
}

// TestBenchGateConfirmPass checks the confirm pass: a row that fails the
// first pass fails the gate only if it fails the confirm pass too, by
// ns/op or by minimum allocs/op; a row that passes on confirm passes, and
// one the confirm outputs do not hold fails.
func TestBenchGateConfirmPass(t *testing.T) {
	base := benchLines("repro", "BenchmarkQueryLatency", [3]int{11000, 11200, 10900}, 1) +
		benchLines("repro/internal/vsm", "BenchmarkSearchShortQuery", [3]int{1500, 1520, 1480}, 1)
	slow := benchLines("repro", "BenchmarkQueryLatency", [3]int{15000, 15200, 14900}, 1) +
		benchLines("repro/internal/vsm", "BenchmarkSearchShortQuery", [3]int{1500, 1510, 1490}, 1)
	latency := func(ns [3]int, allocs int) string {
		return benchLines("repro", "BenchmarkQueryLatency", ns, allocs)
	}
	for _, tc := range []struct {
		name               string
		head, cbase, chead string
		wantExit           int
		wantIn             string
	}{
		{"seeded regression fails both passes", slow,
			latency([3]int{11000, 11100, 10900}, 1), latency([3]int{15100, 15000, 14800}, 1), 1, "bench_gate: FAIL (1 regression(s)"},
		{"a row that fails once and passes on confirm passes", slow,
			latency([3]int{11000, 11100, 10900}, 1), latency([3]int{11300, 11000, 10800}, 1), 0, "bench_gate: PASS"},
		{"allocs/op growth that repeats fails", latency([3]int{11000, 11100, 10900}, 2) + base[strings.Index(base, "pkg: repro/internal/vsm"):],
			latency([3]int{11000, 11100, 10900}, 1), latency([3]int{11000, 11100, 10900}, 2), 1, "FAIL (allocs/op 1 -> 2)"},
		{"allocs/op growth that does not repeat passes", latency([3]int{11000, 11100, 10900}, 2) + base[strings.Index(base, "pkg: repro/internal/vsm"):],
			latency([3]int{11000, 11100, 10900}, 1), latency([3]int{11000, 11100, 10900}, 1), 0, "bench_gate: PASS"},
		{"a failed row the confirm pass does not hold fails", slow,
			benchLines("repro/internal/vsm", "BenchmarkSearchShortQuery", [3]int{1500, 1520, 1480}, 1),
			benchLines("repro/internal/vsm", "BenchmarkSearchShortQuery", [3]int{1500, 1520, 1480}, 1), 1, "FAIL (not re-run)"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			exit, out := runGate(t, t.TempDir(), base, tc.head, tc.cbase, tc.chead)
			if exit != tc.wantExit {
				t.Fatalf("exit = %d, want %d\n%s", exit, tc.wantExit, out)
			}
			for _, want := range []string{tc.wantIn, "bench_gate: first pass: FAIL (1 regression(s)", "confirm pass"} {
				if !strings.Contains(out, want) {
					t.Fatalf("report missing %q:\n%s", want, out)
				}
			}
		})
	}
	// A first pass that passes takes no confirm pass.
	exit, out := runGate(t, t.TempDir(), base, base, slow, base)
	if exit != 0 || strings.Contains(out, "confirm pass") {
		t.Fatalf("parity with a confirm pair: exit = %d\n%s", exit, out)
	}
}

func TestBenchGateInfraErrors(t *testing.T) {
	// Missing inputs and empty intersections are infrastructure errors
	// (exit 2), never silent passes.
	cmd := exec.Command("sh", "scripts/bench_gate.sh", "-a", "/nonexistent", "-b", "/nonexistent")
	if err := cmd.Run(); err == nil {
		t.Fatal("missing input files should not pass")
	} else if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
		t.Fatalf("exit = %v, want 2", err)
	}

	dir := t.TempDir()
	exit, out := runGate(t, dir, "no benchmarks here\n", "nothing here either\n")
	if exit != 2 {
		t.Fatalf("empty comparison: exit = %d, want 2\n%s", exit, out)
	}
}
