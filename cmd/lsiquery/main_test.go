package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/lsi"
	"repro/retrieval"
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

// TestUpgradeFlag converts the golden files of earlier builds: v2 to the
// v4 golden byte for byte, v1 with a saved directory's text.json as its
// text layer, and a directory with a gob segment to one generation file
// that answers as the v4 golden does; each result must open.
// A v1 file without -text, an existing OUT directory and a stray -text
// are refused.
func TestUpgradeFlag(t *testing.T) {
	const testdata = "../../retrieval/testdata/"
	tmp := t.TempDir()
	for _, args := range [][]string{
		{"-upgrade", testdata + "index_v2.gob", filepath.Join(tmp, "v2.lsi")},
		{"-upgrade", "-text", testdata + "dir_gob/text.json", testdata + "index_v1.gob", filepath.Join(tmp, "v1.lsi")},
		{"-upgrade", testdata + "dir_gob", filepath.Join(tmp, "dir")},
	} {
		var out bytes.Buffer
		if err := run(args, strings.NewReader(""), &out, &out); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		if !strings.Contains(out.String(), "rank-3 index over 12 documents and 69 terms") {
			t.Fatalf("%v: output %q", args, out.String())
		}
	}
	got, err := os.ReadFile(filepath.Join(tmp, "v2.lsi"))
	if err != nil {
		t.Fatal(err)
	}
	if want, err := os.ReadFile(testdata + "index_v4.lsi"); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("the upgraded v2 golden is not the v4 golden byte for byte (err %v)", err)
	}
	if entries, err := os.ReadDir(filepath.Join(tmp, "dir")); err != nil || len(entries) != 1 {
		t.Fatalf("the upgraded directory holds %v (%v), want one generation file", entries, err)
	}
	file, err1 := retrieval.Open(testdata + "index_v4.lsi")
	dir, err2 := retrieval.Open(filepath.Join(tmp, "dir"), retrieval.WithAutoCompact(false))
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	defer dir.Close()
	for _, q := range []string{"car engine", "galaxy telescope", "stars"} {
		want, err1 := file.Search(context.Background(), q, 5)
		got, err2 := dir.Search(context.Background(), q, 5)
		if err1 != nil || err2 != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("%q: the upgraded directory answers %v (%v), the v4 golden %v (%v)", q, got, err2, want, err1)
		}
	}
	// A text layer that converts but does not serve (an unknown
	// weighting): the converter never overwrites IN, even as OUT, and
	// keeps no OUT that would not boot.
	text, err := os.ReadFile(testdata + "dir_gob/text.json")
	if err != nil {
		t.Fatal(err)
	}
	bogus := filepath.Join(tmp, "bogus.json")
	if err := os.WriteFile(bogus, bytes.Replace(text, []byte(`"weighting":"log"`), []byte(`"weighting":"bogus"`), 1), 0o644); err != nil {
		t.Fatal(err)
	}
	v1 := filepath.Join(tmp, "v1.gob")
	gob, err := os.ReadFile(testdata + "index_v1.gob")
	if err == nil {
		err = os.WriteFile(v1, gob, 0o644)
	}
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-upgrade", "-text", bogus, v1, v1}, "already exists"},
		{[]string{"-upgrade", "-text", bogus, v1, filepath.Join(tmp, "bogus.lsi")}, "does not open"},
		{[]string{"-upgrade", testdata + "index_v1.gob", filepath.Join(tmp, "bare.lsi")}, "-text"},
		{[]string{"-upgrade", testdata + "dir_gob", filepath.Join(tmp, "dir")}, "exists"},
		{[]string{"-text", testdata + "dir_gob/text.json", "-q", "car"}, "-text needs -upgrade"},
		{[]string{"-upgrade", testdata + "index_v2.gob"}, "IN and OUT"},
	} {
		var out bytes.Buffer
		if err := run(tc.args, strings.NewReader(""), &out, &out); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%v: %v, want an error saying %q", tc.args, err, tc.want)
		}
	}
	if got, err := os.ReadFile(v1); err != nil || !bytes.Equal(got, gob) {
		t.Fatalf("a refused upgrade changed IN (err %v)", err)
	}
	if _, err := os.Stat(filepath.Join(tmp, "bogus.lsi")); !os.IsNotExist(err) {
		t.Fatalf("an upgrade that does not open left OUT behind (%v)", err)
	}
}

// A directory from before settled tiers can hold a segment over a basis
// of its own (a tier the compactor of the time re-decomposed). A shard's
// segments all share its base's basis, so -upgrade converts it, Open
// refuses the result naming the shard, the segment and the rebuild, and
// no OUT is left behind.
func TestUpgradeRefusesATierOverItsOwnBasis(t *testing.T) {
	in := filepath.Join(t.TempDir(), "in")
	if err := os.CopyFS(in, os.DirFS("../../internal/legacy/testdata/dir_v2_tiered")); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(in, "seg-0-0-1.idx")
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	tier, meta, err := lsi.LoadMeta(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	n, k := tier.Basis().Dims()
	uk := slices.Clone(tier.Basis().RawData())
	uk[0] = -uk[0]
	own, err := lsi.NewIndexFromParts(lsi.IndexParts{K: k, NumTerms: n, Sigma: tier.SingularValues(), UkRows: n, UkData: uk,
		DocRows: tier.NumDocs(), DocData: tier.Docs().RawData()})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := own.SaveMeta(&buf, meta); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "out")
	var stdout bytes.Buffer
	err = run([]string{"-upgrade", in, out}, strings.NewReader(""), &stdout, &stdout)
	if want := "shard 0 segment 1: lsi: load: a basis other than the base's it must share; rebuild the index from its source documents"; err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("-upgrade of a tier over its own basis: %v, want an error saying %q", err, want)
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Fatalf("a refused upgrade left OUT behind (%v)", err)
	}
}
