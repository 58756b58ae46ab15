package retrieval

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/ir"
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
			ix, err := Build(docs, WithRank(6), WithEngine(EngineRandomized), WithSeed(7))
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
			ix, err := Build(docs, WithRank(6), WithEngine(EngineRandomized), WithSeed(7),
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
	if s.Backend != "lsi" || !s.TextQueries || s.Weighting != "log" || s.Rank != 3 {
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
// Saved VSM indexes are retired, so Load and Open both refuse it, with an
// error that names the backend and the way to rebuild it from text.
func TestSaveLoadRoundTripVSM(t *testing.T) {
	const path = "testdata/index_vsm_v2.gob"
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, loadErr := Load(bytes.NewReader(data))
	_, openErr := Open(path)
	for name, err := range map[string]error{"Load": loadErr, "Open": openErr} {
		if err == nil {
			t.Fatalf("%s opened a saved VSM index", name)
		}
		for _, want := range []string{"VSM", "lsiserve -backend vsm", "retrieval.BuildVSM"} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("%s error %q does not say %q", name, err, want)
			}
		}
	}
}

// demoTextConfig reconstructs the text layer the golden indexes were
// built with, by rerunning their pipeline over the demo corpus: what a
// v1 file, which stores none, needs attached.
func demoTextConfig() TextConfig {
	pipe := ir.NewPipeline()
	texts := make([]string, len(DemoCorpus()))
	ids := make([]string, len(DemoCorpus()))
	for i, d := range DemoCorpus() {
		texts[i] = d.Text
		ids[i] = d.ID
	}
	pipe.ProcessAll(texts)
	return TextConfig{
		Vocab:           pipe.Vocab.Terms(),
		Weighting:       WeightingLog,
		RemoveStopwords: true,
		Stemming:        true,
		DocIDs:          ids,
	}
}

// testdata/index_v1.gob was written by the pre-v2 code (`lsi.Save`) over
// the demo corpus: rank-3 dense-engine LSI, log weighting. It proves the
// acceptance path: a v1-format index saved before the format bump loads
// and serves text queries after it (v1 carries no vocabulary, so the
// text layer comes in via WithTextConfig).
func TestLoadV1GoldenServesTextQueries(t *testing.T) {
	data, err := os.ReadFile("testdata/index_v1.gob")
	if err != nil {
		t.Fatal(err)
	}

	// Without a text config the numeric index loads but text queries are
	// cleanly refused.
	bare, err := Load(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("v1 index failed to load: %v", err)
	}
	if bare.Stats().TextQueries {
		t.Fatal("v1 stream cannot carry a vocabulary")
	}
	if _, err := bare.Search(context.Background(), "car", 3); !errors.Is(err, ErrNoVocabulary) {
		t.Fatalf("text query on bare v1 index = %v, want ErrNoVocabulary", err)
	}
	if _, err := only(bare.Query(context.Background(), Query{Vector: make([]float64, bare.NumTerms()), TopN: 3})); err != nil {
		t.Fatalf("vector query on bare v1 index: %v", err)
	}

	loaded, err := Load(bytes.NewReader(data), WithTextConfig(demoTextConfig()))
	if err != nil {
		t.Fatal(err)
	}
	if !loaded.Stats().TextQueries {
		t.Fatal("text config not attached")
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

	// Re-save: the index upgrades to the current self-contained format.
	var buf bytes.Buffer
	if err := loaded.Save(&buf); err != nil {
		t.Fatal(err)
	}
	upgraded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !upgraded.Stats().TextQueries {
		t.Fatal("re-saved v1 index is not self-contained")
	}
	searchEqual(t, loaded, upgraded, "car", 4)
}

func TestLoadV1TextConfigValidation(t *testing.T) {
	data, err := os.ReadFile("testdata/index_v1.gob")
	if err != nil {
		t.Fatal(err)
	}
	_, err = Load(bytes.NewReader(data), WithTextConfig(TextConfig{Vocab: []string{"too", "short"}}))
	if err == nil {
		t.Fatal("expected vocabulary-size mismatch error")
	}
}

func TestLoadRejectsFutureVersion(t *testing.T) {
	var legacy bytes.Buffer
	if err := gob.NewEncoder(&legacy).Encode(struct{ Version int }{7}); err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile("testdata/index_v3.lsi")
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint16(golden[len(lsi.Magic):], lsi.WireVersion+1)
	for want, data := range map[string][]byte{"version 7": legacy.Bytes(), "version 5": golden} {
		_, err := Load(bytes.NewReader(data))
		if err == nil {
			t.Fatalf("%s should fail to load", want)
		}
		if !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), "supported: 1..4") {
			t.Fatalf("error %q does not name %s and the supported range", err, want)
		}
	}
}

// Every generation of index on disk — the gob file of wire v1 (numeric
// payload, text layer attached at load), the gob file of v2, the v3
// container, the v4 one with float32 DOCS, and a saved directory whose
// segment is a gob file — came from the same build of the demo corpus,
// and must serve the same IDs and scores bit for bit: v1–v3 narrow their
// document matrix on load to what v4 stores and a fresh build holds.
// Saving any of them again writes v4.
func TestGoldenGenerationsSearchIdentically(t *testing.T) {
	v1, err := Open("testdata/index_v1.gob")
	if err != nil {
		t.Fatal(err)
	}
	if v1.Stats().TextQueries {
		t.Fatal("v1 stream cannot carry a vocabulary")
	}
	data, err := os.ReadFile("testdata/index_v1.gob")
	if err != nil {
		t.Fatal(err)
	}
	if v1, err = Load(bytes.NewReader(data), WithTextConfig(demoTextConfig())); err != nil {
		t.Fatal(err)
	}
	gens := map[string]*Index{"v1": v1}
	for name, path := range map[string]string{
		"v2": "testdata/index_v2.gob", "v3": "testdata/index_v3.lsi", "v4": "testdata/index_v4.lsi", "dir": "testdata/dir_gob",
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
		t.Fatal("the v2 golden, saved again, is not the v4 golden byte for byte")
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
