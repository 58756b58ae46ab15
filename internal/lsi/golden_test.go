package lsi

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/mat"
)

// testdata/index_v1.gob is a golden wire-format-v1 index written by the
// pre-v2 Save (rank-3 dense-engine LSI over the 12-document demo corpus
// with log weighting). It pins backward compatibility: v1 files must keep
// loading after any future format bump. index_v2.gob is the same build
// through the last gob writer's SaveMeta, index_v3.lsi through the first
// container writer's, index_v4.lsi through the first with float32 DOCS
// (index_v3.lsi loaded and saved again).
func TestLoadGoldenV1Index(t *testing.T) {
	f, err := os.Open("testdata/index_v1.gob")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ix, meta, err := LoadMeta(f)
	if err != nil {
		t.Fatalf("golden v1 index failed to load: %v", err)
	}
	if meta != nil {
		t.Fatalf("v1 stream produced metadata %+v, want nil", meta)
	}
	if ix.K() != 3 || ix.NumTerms() != 69 || ix.NumDocs() != 12 {
		t.Fatalf("golden shape k=%d terms=%d docs=%d, want 3/69/12", ix.K(), ix.NumTerms(), ix.NumDocs())
	}
	// Singular values recorded at generation time (dense SVD, deterministic).
	wantSigma := []float64{4.002197456292711, 3.893417461616264, 3.595891480498016}
	for i, want := range wantSigma {
		if math.Abs(ix.SingularValues()[i]-want) > 1e-9 {
			t.Fatalf("sigma[%d] = %v, want %v", i, ix.SingularValues()[i], want)
		}
	}
	// The loaded index must answer vector queries: querying with any
	// document's own representation scores that document at cosine ≈ 1.
	// (Near-synonymous demo documents can tie at 1, so top-1 identity is
	// not guaranteed — the self-score is.)
	for j := 0; j < ix.NumDocs(); j++ {
		self := math.Inf(-1)
		for _, m := range ix.SearchProjected(ix.DocVector(j), 0) {
			if m.Doc == j {
				self = m.Score
			}
		}
		if self < 1-1e-9 {
			t.Fatalf("doc %d self-similarity %v, want ~1", j, self)
		}
	}
}

func TestSaveMetaRoundTrip(t *testing.T) {
	c := testCorpus(t, 2, 8, 0.05, 10, 243)
	a := corpus.TermDocMatrix(c, corpus.LogWeighting)
	ix, err := Build(a, 2, Options{Engine: EngineDense})
	if err != nil {
		t.Fatal(err)
	}
	vocab := make([]string, ix.NumTerms())
	for i := range vocab {
		vocab[i] = string(rune('a'+i%26)) + string(rune('a'+i/26))
	}
	ids := make([]string, ix.NumDocs())
	for i := range ids {
		ids[i] = "doc-" + string(rune('0'+i))
	}
	meta := &Meta{
		Vocab:           vocab,
		WeightingName:   "log",
		DocIDs:          ids,
		RemoveStopwords: true,
		Stemming:        true,
	}
	var buf bytes.Buffer
	if err := ix.SaveMeta(&buf, meta); err != nil {
		t.Fatal(err)
	}
	loaded, got, err := LoadMeta(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got == nil {
		t.Fatal("metadata lost through save/load")
	}
	if len(got.Vocab) != len(vocab) || got.Vocab[3] != vocab[3] {
		t.Fatalf("vocabulary mangled: %v", got.Vocab)
	}
	if got.WeightingName != "log" || !got.RemoveStopwords || !got.Stemming {
		t.Fatalf("pipeline config mangled: %+v", got)
	}
	if len(got.DocIDs) != ix.NumDocs() || got.DocIDs[0] != "doc-0" {
		t.Fatalf("doc IDs mangled: %v", got.DocIDs)
	}
	if loaded.K() != ix.K() || loaded.NumDocs() != ix.NumDocs() {
		t.Fatalf("index shape changed: k=%d docs=%d", loaded.K(), loaded.NumDocs())
	}
}

// Save writes wire v3 and nothing else, metadata or not: the container's
// magic and version lead the file, EncodedSize is its exact length, and
// loading it and saving again reproduces it byte for byte.
func TestSaveWritesV3ByteStable(t *testing.T) {
	c := testCorpus(t, 2, 8, 0.05, 10, 245)
	ix, err := BuildFromCorpus(c, 2, corpus.CountWeighting, Options{Engine: EngineDense})
	if err != nil {
		t.Fatal(err)
	}
	vocab := make([]string, ix.NumTerms())
	for i := range vocab {
		vocab[i] = fmt.Sprintf("t%d", i)
	}
	for name, meta := range map[string]*Meta{
		"plain": nil,
		"meta":  {Vocab: vocab, WeightingName: "count", Stemming: true},
	} {
		var first bytes.Buffer
		if err := ix.SaveMeta(&first, meta); err != nil {
			t.Fatal(err)
		}
		data := first.Bytes()
		if !bytes.HasPrefix(data, append(Magic[:], WireVersion, 0)) {
			t.Fatalf("%s: file starts % x, want the magic and version %d", name, data[:8], WireVersion)
		}
		if meta == nil && len(data) != ix.EncodedSize() {
			t.Fatalf("%s: %d bytes written, EncodedSize says %d", name, len(data), ix.EncodedSize())
		}
		loaded, gotMeta, err := LoadMeta(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotMeta, meta) {
			t.Fatalf("%s: metadata came back as %+v", name, gotMeta)
		}
		var second bytes.Buffer
		if err := loaded.SaveMeta(&second, gotMeta); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(second.Bytes(), data) {
			t.Fatalf("%s: save, load, save changed the bytes", name)
		}
	}
}

// The generations of index file — gob v1, gob v2 with the text layer, the
// v3 container and the v4 one with float32 DOCS — were written from the
// same build, and must load into indexes that answer bit for bit alike:
// v1–v3 narrow their document matrix on load to exactly what v4 stores.
// v2, v3 and v4 carry the same metadata.
func TestGoldenGenerationsAgree(t *testing.T) {
	load := func(name string) (*Index, *Meta) {
		f, err := os.Open("testdata/" + name)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		ix, meta, err := LoadMeta(f)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return ix, meta
	}
	v1, _ := load("index_v1.gob")
	v2, meta2 := load("index_v2.gob")
	v3, meta3 := load("index_v3.lsi")
	v4, meta4 := load("index_v4.lsi")
	if meta2 == nil || len(meta2.Vocab) != 69 || len(meta2.DocIDs) != 12 || meta2.WeightingName != "log" {
		t.Fatalf("v2 metadata %+v", meta2)
	}
	if !reflect.DeepEqual(meta2, meta3) || !reflect.DeepEqual(meta2, meta4) {
		t.Fatalf("v3 metadata %+v or v4's %+v differs from v2's %+v", meta3, meta4, meta2)
	}
	for name, ix := range map[string]*Index{"v2": v2, "v3": v3, "v4": v4} {
		if !mat.EqualApprox(ix.Basis(), v1.Basis(), 0) || !mat.EqualApprox(ix.DocVectors(), v1.DocVectors(), 0) {
			t.Fatalf("%s arrays differ from v1's", name)
		}
		for j := 0; j < v1.NumDocs(); j++ {
			if !reflect.DeepEqual(ix.SearchProjected(v1.DocVector(j), 5), v1.SearchProjected(v1.DocVector(j), 5)) {
				t.Fatalf("%s answers query %d differently from v1", name, j)
			}
		}
	}
}

func TestSaveMetaValidatesDimensions(t *testing.T) {
	c := testCorpus(t, 2, 8, 0.05, 10, 244)
	ix, err := BuildFromCorpus(c, 2, corpus.CountWeighting, Options{Engine: EngineDense})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.SaveMeta(&buf, &Meta{Vocab: []string{"only", "two"}}); err == nil {
		t.Fatal("expected vocabulary dimension error")
	}
	if err := ix.SaveMeta(&buf, &Meta{DocIDs: []string{"d0"}}); err == nil {
		t.Fatal("expected doc-ID dimension error")
	}
}

func TestLoadRejectsFutureVersion(t *testing.T) {
	var legacy bytes.Buffer
	future := indexWire{
		Version: 99, K: 1, NumTerms: 1, Sigma: []float64{1},
		UkRows: 1, UkData: []float64{1}, DocRows: 1, DocData: []float64{1},
	}
	if err := gob.NewEncoder(&legacy).Encode(future); err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile("testdata/index_v3.lsi")
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint16(golden[len(Magic):], WireVersion+1)
	for want, data := range map[string][]byte{
		"version 99":                             legacy.Bytes(),
		fmt.Sprintf("version %d", WireVersion+1): golden,
	} {
		_, err := Load(bytes.NewReader(data))
		if err == nil {
			t.Fatalf("%s should fail to load", want)
		}
		if !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), "supported: 1..4") {
			t.Fatalf("error %q does not name %s and the supported range", err, want)
		}
	}
}
