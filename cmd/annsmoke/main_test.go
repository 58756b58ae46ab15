package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/corpus"
)

func writeCorpus(t *testing.T, topics, docsPerTopic int) string {
	t.Helper()
	model, err := corpus.PureSeparableModel(corpus.SeparableConfig{
		NumTopics: topics, TermsPerTopic: 20, Epsilon: 0.05, MinLen: 30, MaxLen: 60,
	})
	if err != nil {
		t.Fatal(err)
	}
	model.Sampler = &corpus.RoundRobinSampler{NumTopics: topics, MinLen: 30, MaxLen: 60}
	c, err := corpus.Generate(model, topics*docsPerTopic, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "corpus.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := corpus.WriteJSON(f, c); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestSmokePassesOnSeparableCorpus(t *testing.T) {
	path := writeCorpus(t, 8, 50)
	out := filepath.Join(t.TempDir(), "ann-smoke.json")
	var stdout, stderr bytes.Buffer
	err := run(context.Background(), []string{
		"-corpus", path, "-rank", "8", "-nlist", "8", "-nprobe", "8",
		"-queries", "40", "-min-recall", "1.0", "-o", out,
	}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, stderr.String())
	}

	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var s Summary
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatalf("summary not valid JSON: %v\n%s", err, data)
	}
	// nprobe = nlist probes every cell, so recall is exactly 1 by the
	// determinism contract, and every query ran through the tier.
	if s.Recall != 1 || s.Docs != 400 || s.NList != 8 || s.Queries != 40 {
		t.Errorf("summary: %+v", s)
	}
	if s.ExhaustiveNsPerQuery <= 0 || s.ANNNsPerQuery <= 0 || s.DocsScoredPerQuery <= 0 {
		t.Errorf("latency fields not populated: %+v", s)
	}
}

func TestSmokeGatesFail(t *testing.T) {
	path := writeCorpus(t, 4, 25)
	for _, tc := range []struct {
		name string
		gate []string
	}{
		// A speedup gate no configuration meets on 100 documents.
		{"speedup", []string{"-min-speedup", "1e9"}},
		// A recall gate no run can meet: recall is at most 1.
		{"recall", []string{"-min-recall", "1.01"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			args := append([]string{
				"-corpus", path, "-rank", "4", "-nlist", "4", "-nprobe", "4",
				"-queries", "10", "-o", "-",
			}, tc.gate...)
			// The gate must trip and name its quantity.
			err := run(context.Background(), args, &stdout, &stderr)
			if err == nil || !strings.Contains(err.Error(), tc.name) {
				t.Fatalf("%s gate did not trip: %v", tc.name, err)
			}
			if !strings.Contains(stdout.String(), "\"recall\"") {
				t.Error("summary should be written before the gate verdict")
			}
		})
	}
}

func TestRunFlagValidation(t *testing.T) {
	for _, args := range [][]string{
		{},                       // -corpus missing
		{"-corpus", "x", "junk"}, // positional
		{"-corpus", "x", "-queries", "0"},
		{"-corpus", filepath.Join(t.TempDir(), "nope.jsonl")}, // unreadable
	} {
		var stdout, stderr bytes.Buffer
		if err := run(context.Background(), args, &stdout, &stderr); err == nil {
			t.Errorf("run(%v) should fail", args)
		}
	}
}

func TestTermTokenRoundTripsThroughTokenizer(t *testing.T) {
	seen := map[string]bool{}
	for _, id := range []int{0, 1, 9, 10, 17, 103, 99999} {
		tok := termToken(id)
		if seen[tok] {
			t.Errorf("token collision at %d: %s", id, tok)
		}
		seen[tok] = true
		for _, r := range tok {
			if r < 'a' || r > 'z' {
				t.Errorf("termToken(%d) = %q contains a non-letter", id, tok)
			}
		}
	}
}
