package main

import (
	"encoding/json"
	"flag"
	"os"
	"regexp"
	"testing"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the tables in spec.go")

// benchmarkJSON is BENCHMARK.json as the tables in spec.go spell it.
func benchmarkJSON() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	out := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: int(scaleDefault.seconds),
	}
	for _, w := range workloads {
		out.Workloads = append(out.Workloads, wl{w.name, w.why})
	}
	for _, m := range endToEnd {
		out.EndToEnd = append(out.EndToEnd, e2e{m.name, m.unit, m.better, m.bound})
	}
	for _, m := range perLayer {
		out.PerLayer = append(out.PerLayer, layer{m.name, m.unit, m.better})
	}
	data, err := json.MarshalIndent(out, "", "  ")
	return append(data, '\n'), err
}

// The names this program emits are the names BENCHMARK.json declares, with
// their units, directions and bounds: a later issue cites "metric X on
// workload Y" by these and nothing else.
func TestNamesMatchBenchmarkFile(t *testing.T) {
	want, err := benchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile("../BENCHMARK.json", want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("BENCHMARK.json is not what spec.go spells; go -C bench test -run TestNamesMatchBenchmarkFile -update rewrites it. Want:\n%s", want)
	}

	legalName := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	legalUnit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(kind, n string) {
		if !legalName.MatchString(n) {
			t.Errorf("%s %q is not a legal name", kind, n)
		}
		if seen[n] {
			t.Errorf("%s %q is used twice", kind, n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		name("workload", w.name)
		if len(w.why) == 0 || len(w.why) > 200 {
			t.Errorf("workload %s: its why has %d characters", w.name, len(w.why))
		}
	}
	metric := func(m metricDef) {
		name("metric", m.name)
		if !legalUnit.MatchString(m.unit) {
			t.Errorf("%s: unit %q is not legal", m.name, m.unit)
		}
		if m.better != "lower" && m.better != "higher" {
			t.Errorf("%s: better = %q", m.name, m.better)
		}
	}
	for _, m := range endToEnd {
		metric(m)
		if m.bound <= 0 {
			t.Errorf("%s: an end-to-end metric needs a bound", m.name)
		}
	}
	// Every per-layer metric says what it should move, where, and where not.
	for _, g := range layerGroups {
		if g.moves == "" || g.on == "" || g.flat == "" {
			t.Errorf("the group of %s has no predicted effect", g.metrics[0].name)
		}
		for _, m := range g.metrics {
			metric(m)
		}
	}
}
