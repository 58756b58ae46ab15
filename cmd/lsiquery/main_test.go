package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// TestNonInteractiveQuery is the CLI smoke test: `lsiquery -q` on the
// built-in demo corpus must print both rankings, with the LSI side
// showing the synonymy effect ("car" retrieves the "automobile"
// documents that literal matching cannot reach).
func TestNonInteractiveQuery(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"-q", "car", "-top", "4"}, strings.NewReader(""), &out, &errOut); err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errOut.String())
	}
	got := out.String()
	for _, want := range []string{"query: car", "LSI:", "VSM:", "demo-01", "demo-02"} {
		if !strings.Contains(got, want) {
			t.Fatalf("output missing %q:\n%s", want, got)
		}
	}
	// The VSM section must not contain the synonym-only documents; they
	// appear only under LSI.
	vsmPart := got[strings.Index(got, "VSM:"):]
	if strings.Contains(vsmPart, "demo-01") || strings.Contains(vsmPart, "demo-02") {
		t.Fatalf("VSM ranking retrieved synonym-only documents:\n%s", got)
	}
}

func TestUnknownVocabularyQuery(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-q", "zzzunknownzzz"}, strings.NewReader(""), &out, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "no query terms in the vocabulary") {
		t.Fatalf("missing vocabulary notice:\n%s", out.String())
	}
}

func TestInteractiveLoop(t *testing.T) {
	var out bytes.Buffer
	in := strings.NewReader("galaxy\npasta sauce\n")
	if err := run(nil, in, &out, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if strings.Count(got, "LSI:") != 2 || strings.Count(got, "query> ") != 3 {
		t.Fatalf("interactive loop output wrong:\n%s", got)
	}
}

func TestSaveIndexRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "demo.idx")
	var out bytes.Buffer
	if err := run([]string{"-save-index", path}, strings.NewReader(""), &out, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Saved self-contained rank-3 index over 12 documents") {
		t.Fatalf("save message wrong:\n%s", out.String())
	}
	// lsiserve-style load must serve text queries from it (covered in
	// depth by retrieval's tests; this is the CLI-level smoke).
	fi, err := filepath.Glob(path)
	if err != nil || len(fi) != 1 {
		t.Fatalf("index file missing: %v %v", fi, err)
	}
}

func TestStatsFlag(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run([]string{"-k", "3", "-stats"}, strings.NewReader(""), &out, &errb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"backend:      lsi", "rank:         3", "vocabulary:", "memory (est):"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("-stats output missing %q:\n%s", want, out.String())
		}
	}
}

func TestStatsFlagCacheSection(t *testing.T) {
	// Uncached by default: the stats block says how to turn it on.
	var out, errb bytes.Buffer
	if err := run([]string{"-stats"}, strings.NewReader(""), &out, &errb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "query cache:  off") {
		t.Fatalf("-stats output missing cache-off notice:\n%s", out.String())
	}
	// With -cache-mb the capacity and counters are reported.
	out.Reset()
	if err := run([]string{"-cache-mb", "8", "-stats"}, strings.NewReader(""), &out, &errb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"query cache:  8.0 MiB cap", "0 hits / 0 misses", "0 evictions (probation: 0 B, 0 aged out)"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("-stats -cache-mb output missing %q:\n%s", want, out.String())
		}
	}
}
