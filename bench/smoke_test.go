package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestQuickSmoke drives all four workloads end to end at the -quick scale,
// lsiserve subprocesses included, untraced and traced, and holds the
// output to what BENCHMARK.json promises: every declared metric and no
// other, a correct run, and no process or scratch directory left behind.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds lsiserve and boots ten servers")
	}
	ctx := context.Background()
	// What bench/run.sh does before it starts this program.
	bin := filepath.Join(t.TempDir(), "lsiserve")
	if out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/lsiserve").CombinedOutput(); err != nil {
		t.Fatalf("go build repro/cmd/lsiserve: %v\n%s", err, out)
	}
	bf, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	before, _ := filepath.Glob("../.bench_build/run-*") // other runs' scratch, if any are going on
	for _, wl := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(wl.name+"/trace="+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				err := run(ctx, []string{"--workload", wl.name, "--seed", "3", "--seconds", "0.5", "--trace", trace,
					"-quick", "-lsiserve", bin, "-root", ".."}, &stdout, &stderr)
				if err != nil {
					t.Fatalf("%v\n%s", err, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res struct {
					Correct   bool `json:"correct"`
					Attempted int  `json:"attempted"`
					Failed    int  `json:"failed"`
					Metrics   map[string]struct {
						Value float64 `json:"value"`
						Unit  string  `json:"unit"`
					} `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v\n%s", err, stdout.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct %v, %d of %d failed\n%s", res.Correct, res.Failed, res.Attempted, stdout.String())
				}
				want := map[string]string{}
				if trace == "0" {
					for _, m := range bf.EndToEnd {
						want[m.Name] = m.Unit
					}
				} else {
					for _, m := range bf.PerLayer {
						want[m.Name] = m.Unit
					}
				}
				for name, unit := range want {
					got, ok := res.Metrics[name]
					if !ok {
						t.Errorf("metric %s missing", name)
					} else if got.Unit != unit {
						t.Errorf("metric %s in %q, declared in %q", name, got.Unit, unit)
					}
					if trace == "0" && got.Value == 0 {
						t.Errorf("end-to-end metric %s is 0", name)
					}
				}
				for name := range res.Metrics {
					if _, ok := want[name]; !ok {
						t.Errorf("metric %s is not declared in BENCHMARK.json", name)
					}
				}
			})
		}
	}
	// A run leaves its results and nothing else.
	after, _ := filepath.Glob("../.bench_build/run-*")
	for _, dir := range after {
		if !slices.Contains(before, dir) {
			t.Errorf("scratch directory %s left behind", dir)
		}
	}
	if out, err := os.ReadFile("out/trace-ingest_mixed.jsonl"); err != nil || !bytes.Contains(out, []byte(`"layer":"wal.append"`)) {
		t.Errorf("no ladder spans written for ingest_mixed: %v", err)
	}
}
