package legacy

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/lsi"
	"repro/retrieval"
	"repro/retrieval/shard"
)

// upgraded converts the directory in to a fresh directory, checks that
// the result is one file, and returns its path.
func upgraded(t *testing.T, in string, text *lsi.Meta) string {
	t.Helper()
	out := filepath.Join(t.TempDir(), "out")
	if err := UpgradePath(in, out, text); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(out)
	if err != nil || len(entries) != 1 {
		t.Fatalf("the upgraded directory holds %v (%v), want one generation file", entries, err)
	}
	return out
}

// testdata/dir_v2_tiered is a two-shard checkpoint with IVF and int8
// sidecars and a fold-in segment per shard, saved as many files (version
// 2 manifest) by the last build that wrote that layout; the .answers.json
// beside it holds what that build answered from it, exactly and through
// the tiers. The upgraded directory answers the same, bit for bit. Its
// int8 sidecars are version 2, whose codes quantize unrotated rows: the
// open counts both as degraded and retrains the tier where the options
// ask for it.
func TestUpgradeDirectoryAnswersAsSaved(t *testing.T) {
	in := filepath.Join("testdata", "dir_v2_tiered")
	data, err := os.ReadFile(in + ".answers.json")
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]map[string][]retrieval.Result
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	out := upgraded(t, in, nil)
	for route, opts := range map[string][]retrieval.Option{
		"exact":  {retrieval.WithAutoCompact(false)},
		"tiered": {retrieval.WithAutoCompact(false), retrieval.WithANN(4, 2), retrieval.WithQuantized(4)},
	} {
		ix, err := retrieval.Open(out, opts...)
		if err != nil {
			t.Fatal(err)
		}
		st := ix.Stats()
		if st.PerShard == nil || st.SidecarsDegraded != 2 || st.ANN == nil || st.ANN.Segments != 2 || (st.Quant != nil && st.Quant.Segments == 2) != (route == "tiered") {
			t.Fatalf("%s: the upgraded checkpoint lost its IVF sidecars, or kept or did not retrain its int8 ones: %+v, %+v, %+v", route, st.Stats, st.ANN, st.Quant)
		}
		for q, res := range want[route] {
			got, err := ix.Search(context.Background(), q, len(res))
			if err != nil || !reflect.DeepEqual(got, res) {
				t.Errorf("%s %q: %v (%v), want %v", route, q, got, err, res)
			}
		}
		ix.Close()
	}
	if err := UpgradePath(in, filepath.Join(t.TempDir(), "again"), &lsi.Meta{Vocab: []string{"x"}}); err == nil || !strings.Contains(err.Error(), "drop -text") {
		t.Fatalf("a directory with its own text layer upgraded with -text: %v", err)
	}
	if err := UpgradePath(out, filepath.Join(t.TempDir(), "again"), nil); err == nil || !strings.Contains(err.Error(), "manifest.json") {
		t.Fatalf("upgrading a current checkpoint: %v, want an error naming the manifest it lacks", err)
	}
}

// The shard checkpoints of retrieval/shard/testdata carry no text layer:
// v1-sidecars (version-1 manifest and sidecars), and the same with
// v2-sidecars' version-2 IVF sidecar and its int8 sidecar gone. They
// upgrade with -text; the upgraded segment holds the saved index's
// numbers bit for bit, and the sidecars of an old version are counted as
// degraded and retrained (a missing one just retrained), as when such a
// directory opened before.
func TestUpgradeShardCheckpointWithText(t *testing.T) {
	const testdata = "../../retrieval/shard/testdata/"
	v1 := testdata + "v1-sidecars"
	v2 := filepath.Join(t.TempDir(), "v2")
	if err := os.CopyFS(v2, os.DirFS(v1)); err != nil {
		t.Fatal(err)
	}
	ann, err := os.ReadFile(testdata + "v2-sidecars/ann-0-0-0.ivf")
	if err == nil {
		err = os.WriteFile(filepath.Join(v2, "ann-0-0-0.ivf"), ann, 0o644)
	}
	if err == nil {
		err = os.Remove(filepath.Join(v2, "quant-0-0-0.qnt"))
	}
	if err != nil {
		t.Fatal(err)
	}
	seg, err := os.ReadFile(filepath.Join(v1, "seg-0-0-0.idx"))
	if err != nil {
		t.Fatal(err)
	}
	vocab := make([]string, 40)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("term%c%c", 'a'+i/26, 'a'+i%26)
	}
	text := &lsi.Meta{Vocab: vocab, WeightingName: "log"}
	if err := UpgradePath(v1, filepath.Join(t.TempDir(), "bare"), nil); err == nil || !strings.Contains(err.Error(), "-text") {
		t.Fatalf("a directory without a text layer upgraded without -text: %v", err)
	}
	for in, degraded := range map[string]int64{v1: 2, v2: 1} {
		out := upgraded(t, in, text)
		x, err := shard.Open(out, shard.Config{ANNList: 6, Quantize: true, TierMinDocs: 1})
		if err != nil {
			t.Fatal(err)
		}
		segs := x.Segments(nil)
		var got bytes.Buffer
		if len(segs) != 1 || segs[0].Ix.SaveIn(&got, nil) != nil || !bytes.Equal(got.Bytes(), seg) {
			t.Errorf("%s: the upgraded segment does not hold the saved index's numbers", in)
		}
		if x.Stats().SidecarsDegraded != degraded || len(segs) != 1 || segs[0].Ann == nil || segs[0].Quant == nil {
			t.Errorf("%s: %d sidecars degraded, want %d, and both tiers retrained", in, x.Stats().SidecarsDegraded, degraded)
		}
		x.Close()
		ix, err := retrieval.Open(out, retrieval.WithAutoCompact(false))
		if err != nil {
			t.Fatal(err)
		}
		if res, err := ix.Search(context.Background(), "termad termah", 3); err != nil || len(res) != 3 {
			t.Errorf("%s: the upgraded checkpoint does not serve text queries: %v, %v", in, res, err)
		}
		ix.Close()
	}
}
