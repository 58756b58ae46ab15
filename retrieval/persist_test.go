package retrieval

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/ir"
	"repro/internal/legacy"
	"repro/internal/lsi"
	"repro/internal/par"
)

func searchEqual(t *testing.T, a, b *Index, query string, topN int) {
	t.Helper()
	ctx := context.Background()
	ra, err := a.Search(ctx, query, topN)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.Search(ctx, query, topN)
	if err != nil {
		t.Fatal(err)
	}
	if len(ra) != len(rb) {
		t.Fatalf("%q: %d vs %d results", query, len(ra), len(rb))
	}
	for i := range ra {
		if ra[i] != rb[i] {
			t.Fatalf("%q result %d: %+v vs %+v", query, i, ra[i], rb[i])
		}
	}
}

// A fixed seed must write the same index file twice, and whatever the
// worker count: the randomized engine's reductions run over fixed row
// panels, not per-worker chunks. 1,200 documents put three panels on the
// document side and clear the sparse kernels' parallel threshold. The
// sharded build runs its shards' SVDs and tier training concurrently, up
// to MaxProcs at a time, so its saved directory must not depend on how
// many of them ran together either.
func TestBuildSaveBytesIndependentOfMaxProcs(t *testing.T) {
	texts := synthTexts(1200, 41)
	docs := make([]Document, len(texts))
	for i, text := range texts {
		docs[i] = Document{ID: fmt.Sprintf("d%d", i), Text: text}
	}
	t.Run("unsharded", func(t *testing.T) {
		var first []byte
		for _, procs := range []int{1, 1, 2, 8} {
			old := par.SetMaxProcs(procs)
			ix, err := Build(docs, WithRank(6), WithEngine(EngineRandomized))
			par.SetMaxProcs(old)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := ix.Save(&buf); err != nil {
				t.Fatal(err)
			}
			if first == nil {
				first = buf.Bytes()
			} else if !bytes.Equal(buf.Bytes(), first) {
				t.Fatalf("MaxProcs=%d: saved index differs from the first MaxProcs=1 build", procs)
			}
		}
	})
	t.Run("sharded", func(t *testing.T) {
		var first map[string][sha256.Size]byte
		for _, procs := range []int{1, 2, 8} {
			old := par.SetMaxProcs(procs)
			ix, err := Build(docs, WithRank(6), WithEngine(EngineRandomized),
				WithShards(3), WithANN(8, 2), WithQuantized(2))
			par.SetMaxProcs(old)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			err = ix.SaveDir(dir)
			ix.Close()
			if err != nil {
				t.Fatal(err)
			}
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			sums := map[string][sha256.Size]byte{}
			for _, e := range entries {
				b, err := os.ReadFile(filepath.Join(dir, e.Name()))
				if err != nil {
					t.Fatal(err)
				}
				sums[e.Name()] = sha256.Sum256(b)
			}
			names := slices.Sorted(maps.Keys(sums))
			if first == nil {
				first = sums
				for _, want := range []string{"ann-", "quant-"} {
					if !slices.ContainsFunc(names, func(n string) bool { return strings.HasPrefix(n, want) }) {
						t.Fatalf("no %s* file saved: %v", want, names)
					}
				}
			} else if !maps.Equal(sums, first) {
				t.Fatalf("MaxProcs=%d: saved directory %v differs from the MaxProcs=1 build's", procs, names)
			}
		}
	})
}

func TestSaveLoadRoundTripLSI(t *testing.T) {
	ix := demoLSI(t)
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	s := loaded.Stats()
	if s.Backend != "lsi" || s.VocabSize != s.NumTerms || s.Weighting != "log" || s.Rank != 3 {
		t.Fatalf("loaded stats = %+v", s)
	}
	// The loaded index is self-contained: text queries answer identically
	// with no access to the corpus, and IDs survive.
	searchEqual(t, ix, loaded, "car engine", 4)
	searchEqual(t, ix, loaded, "telescope galaxy", 4)
	res, err := loaded.Search(context.Background(), "automobile", 1)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(res[0].ID, "demo-") {
		t.Fatalf("doc IDs lost through save/load: %+v", res[0])
	}
}

// testdata/index_vsm_v2.gob is what an earlier build's Save wrote for a
// VSM index (TF-IDF, demo corpus): a gob stream tagged Backend "vsm".
// Load and Open refuse it as they refuse every gob stream, naming the
// converter, and the converter refuses it with an error that names the
// backend and the way to rebuild it from text.
func TestSaveLoadRoundTripVSM(t *testing.T) {
	const path = "testdata/index_vsm_v2.gob"
	refusesGob(t, path)
	err := legacy.UpgradePath(path, filepath.Join(t.TempDir(), "vsm.lsi"), nil)
	if err == nil {
		t.Fatal("the converter upgraded a saved VSM index")
	}
	for _, want := range []string{"VSM", "lsiserve -backend vsm", "retrieval.BuildVSM"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("converter error %q does not say %q", err, want)
		}
	}
}

// refusesGob asserts that Open, and Load for a file, refuse the index at
// path with an error that names lsiquery -upgrade.
func refusesGob(t *testing.T, path string) {
	t.Helper()
	_, openErr := Open(path)
	errs := map[string]error{"Open": openErr}
	if data, err := os.ReadFile(path); err == nil {
		_, errs["Load"] = Load(bytes.NewReader(data))
	}
	for name, err := range errs {
		if err == nil || !strings.Contains(err.Error(), "lsiquery -upgrade") {
			t.Fatalf("%s %s: %v, want an error naming lsiquery -upgrade", name, path, err)
		}
	}
}

// upgraded converts the index at path as lsiquery -upgrade does and
// returns where it wrote the result.
func upgraded(t *testing.T, path string, text *lsi.Meta) string {
	t.Helper()
	out := filepath.Join(t.TempDir(), "upgraded")
	if err := legacy.UpgradePath(path, out, text); err != nil {
		t.Fatal(err)
	}
	return out
}

// demoText reconstructs the text layer the golden indexes were built
// with, by rerunning their pipeline over the demo corpus: what a v1 file,
// which stores none, needs to upgrade.
func demoText() *lsi.Meta {
	pipe := &ir.Pipeline{RemoveStopwords: true, Stemming: true}
	texts := make([]string, len(DemoCorpus()))
	ids := make([]string, len(DemoCorpus()))
	for i, d := range DemoCorpus() {
		texts[i] = d.Text
		ids[i] = d.ID
	}
	pipe.TermDocMatrix(texts, corpus.LogWeighting)
	return &lsi.Meta{
		Vocab:           pipe.Vocab.Terms(),
		WeightingName:   WeightingLog.String(),
		RemoveStopwords: true,
		Stemming:        true,
		DocIDs:          ids,
	}
}

// testdata/index_v1.gob was written by the pre-v2 code (`lsi.Save`) over
// the demo corpus: rank-3 dense-engine LSI, log weighting. v1 carries no
// vocabulary, so it no longer opens; upgraded with the text layer its
// build had, it serves text queries exactly as a fresh build does, and it
// is self-contained: saving it again writes the same bytes.
func TestLoadV1GoldenServesTextQueries(t *testing.T) {
	refusesGob(t, "testdata/index_v1.gob")
	path := upgraded(t, "testdata/index_v1.gob", demoText())
	loaded, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if st := loaded.Stats(); st.VocabSize != st.NumTerms {
		t.Fatalf("text layer not attached: %+v", st)
	}

	// The migrated v1 index must behave exactly like a fresh build with
	// the same parameters — including the synonymy effect.
	fresh := demoLSI(t)
	searchEqual(t, fresh, loaded, "car engine repair", 4)
	res, err := loaded.Search(context.Background(), "car", 4)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, r := range res {
		seen[r.Doc] = true
	}
	if !seen[1] || !seen[2] {
		t.Fatalf("migrated v1 index lost the synonymy effect: %+v", res)
	}

	var buf bytes.Buffer
	if err := loaded.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if want, err := os.ReadFile(path); err != nil || !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("the upgraded v1 index saves as different bytes (err %v)", err)
	}
}

// A stream without a text layer — the v1 golden, or a bare lsi.Save —
// does not load: Load names the converter. The converter refuses it
// without -text, and refuses a text layer whose vocabulary does not fit.
func TestLoadV1TextConfigValidation(t *testing.T) {
	bare := new(bytes.Buffer)
	if err := demoLSI(t).sharded.Segments(nil)[0].Ix.Save(bare); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bare); err == nil || !strings.Contains(err.Error(), "lsiquery -upgrade") {
		t.Fatalf("a stream without a text layer loads with %v, want an error naming lsiquery -upgrade", err)
	}
	out := filepath.Join(t.TempDir(), "v1.lsi")
	if err := legacy.UpgradePath("testdata/index_v1.gob", out, nil); err == nil || !strings.Contains(err.Error(), "-text") {
		t.Fatalf("upgrade without a text layer: %v, want a refusal naming -text", err)
	}
	short := demoText()
	short.Vocab = []string{"too", "short"}
	if err := legacy.UpgradePath("testdata/index_v1.gob", out, short); err == nil {
		t.Fatal("expected vocabulary-size mismatch error")
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Fatalf("a refused upgrade left %s behind (%v)", out, err)
	}
}

func TestLoadRejectsFutureVersion(t *testing.T) {
	golden, err := os.ReadFile("testdata/index_v3.lsi")
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint16(golden[len(lsi.Magic):], lsi.WireVersion+1)
	_, err = Load(bytes.NewReader(golden))
	if err == nil || !strings.Contains(err.Error(), "version 5") || !strings.Contains(err.Error(), "supported: 3..4") {
		t.Fatalf("error %v does not name version 5 and the supported range", err)
	}
}

// Every generation of index on disk — the gob file of wire v1 (numeric
// payload; its text layer supplied at upgrade), the gob file of v2, the v3
// container, the v4 one with float32 DOCS, and a saved directory whose
// segment is a gob file — came from the same build of the demo corpus.
// The gob generations no longer open; upgraded, they and the containers
// serve the same IDs and scores bit for bit: v1–v3 narrow their document
// matrix to what v4 stores and a fresh build holds. v2 upgrades to the v4
// golden byte for byte, and the directory to one whose segments are
// containers.
func TestGoldenGenerationsSearchIdentically(t *testing.T) {
	for _, path := range []string{"testdata/index_v1.gob", "testdata/index_v2.gob", "testdata/dir_gob"} {
		refusesGob(t, path)
	}
	gens := map[string]*Index{}
	for name, path := range map[string]string{
		"v1": upgraded(t, "testdata/index_v1.gob", demoText()), "v2": upgraded(t, "testdata/index_v2.gob", nil),
		"v3": "testdata/index_v3.lsi", "v4": "testdata/index_v4.lsi", "dir": upgraded(t, "testdata/dir_gob", nil),
	} {
		ix, err := Open(path, WithAutoCompact(false))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		defer ix.Close()
		gens[name] = ix
	}
	fresh := demoLSI(t)
	for name, ix := range gens {
		for _, q := range []string{"car", "car engine repair", "telescope galaxy", "pasta sauce"} {
			for _, topN := range []int{1, 4, 0} {
				t.Run(name, func(t *testing.T) { searchEqual(t, fresh, ix, q, topN) })
			}
		}
	}

	var flat bytes.Buffer
	if err := gens["v2"].Save(&flat); err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile("testdata/index_v4.lsi")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(flat.Bytes(), golden) {
		t.Fatal("the v2 golden, upgraded, is not the v4 golden byte for byte")
	}
	dir := t.TempDir()
	if err := gens["dir"].SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.idx"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("saved segments %v, err %v", segs, err)
	}
	if seg, err := os.ReadFile(segs[0]); err != nil || !bytes.HasPrefix(seg, lsi.Magic[:]) {
		t.Fatalf("a saved segment does not start with the container magic (err %v)", err)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(strings.NewReader("not an index")); err == nil {
		t.Fatal("garbage stream should fail to load")
	}
	if _, err := Load(strings.NewReader("")); err == nil {
		t.Fatal("empty stream should fail to load")
	}
}
