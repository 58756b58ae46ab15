package lsi_test

import (
	"bytes"
	"errors"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/legacy"
	"repro/internal/lsi"
	"repro/internal/mat"
)

// The golden files of every generation came from one build: rank-3
// dense-engine LSI over the 12-document demo corpus with log weighting.
// index_v1.gob through the pre-v2 Save (numeric payload only),
// index_v2.gob through the last gob writer's SaveMeta, index_v3.lsi through
// the first container writer's, index_v4.lsi through the first with
// float32 DOCS (index_v3.lsi loaded and saved again). Load reads the
// containers; the gob files convert with internal/legacy.

// golden reads a golden file.
func golden(t *testing.T, name string) []byte {
	t.Helper()
	data, err := os.ReadFile("testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// upgrade converts data to wire v4 as lsiquery -upgrade does.
func upgrade(t *testing.T, data []byte, text *lsi.Meta) []byte {
	t.Helper()
	up, err := legacy.Upgrade(data, text)
	if err != nil {
		t.Fatal(err)
	}
	return up
}

// v2Text is the text layer index_v2.gob carries: the one the v1 file,
// from the same build, lacks.
func v2Text(t *testing.T) *lsi.Meta {
	t.Helper()
	_, meta, err := legacy.Read(bytes.NewReader(golden(t, "index_v2.gob")))
	if err != nil {
		t.Fatal(err)
	}
	return meta
}

// The v1 golden does not load: Load names the converter. The converter
// refuses it without a text layer, and with the one its build had it
// writes the v4 golden byte for byte — an index of the recorded shape and
// singular values that answers vector queries.
func TestLoadGoldenV1Index(t *testing.T) {
	v1 := golden(t, "index_v1.gob")
	if _, err := lsi.Load(bytes.NewReader(v1)); !errors.Is(err, lsi.ErrNotContainer) || !strings.Contains(err.Error(), "lsiquery -upgrade") {
		t.Fatalf("the v1 golden loads with %v, want ErrNotContainer naming lsiquery -upgrade", err)
	}
	if _, err := legacy.Upgrade(v1, nil); err == nil || !strings.Contains(err.Error(), "-text") {
		t.Fatalf("upgrading v1 without a text layer: %v, want a refusal naming -text", err)
	}
	up := upgrade(t, v1, v2Text(t))
	if !bytes.Equal(up, golden(t, "index_v4.lsi")) {
		t.Fatal("the v1 golden with its text layer does not upgrade to the v4 golden byte for byte")
	}
	ix, err := lsi.Load(bytes.NewReader(up))
	if err != nil {
		t.Fatal(err)
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
	// Querying with any document's own representation scores that
	// document at cosine ≈ 1. (Near-synonymous demo documents can tie at
	// 1, so top-1 identity is not guaranteed — the self-score is.)
	for j := 0; j < ix.NumDocs(); j++ {
		self := math.Inf(-1)
		for _, m := range ix.AppendSearchProjected(nil, ix.DocVector(j), 0) {
			if m.Doc == j {
				self = m.Score
			}
		}
		if self < 1-1e-9 {
			t.Fatalf("doc %d self-similarity %v, want ~1", j, self)
		}
	}
}

// Every generation, converted, is the v4 golden byte for byte (v1 with
// its build's text layer), so all four answer bit for bit alike and carry
// v2's metadata: v1–v3 narrow their document matrix to exactly what v4
// stores. The v3 and v4 goldens also load directly, into the same arrays.
func TestGoldenGenerationsAgree(t *testing.T) {
	want := golden(t, "index_v4.lsi")
	for name, up := range map[string][]byte{
		"v1": upgrade(t, golden(t, "index_v1.gob"), v2Text(t)),
		"v2": upgrade(t, golden(t, "index_v2.gob"), nil),
		"v3": upgrade(t, golden(t, "index_v3.lsi"), nil),
		"v4": upgrade(t, want, nil),
	} {
		if !bytes.Equal(up, want) {
			t.Fatalf("%s does not upgrade to the v4 golden byte for byte", name)
		}
	}
	load := func(name string) (*lsi.Index, *lsi.Meta) {
		ix, meta, err := lsi.LoadMeta(bytes.NewReader(golden(t, name)))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return ix, meta
	}
	v2, meta2, err := legacy.Read(bytes.NewReader(golden(t, "index_v2.gob")))
	if err != nil {
		t.Fatal(err)
	}
	v3, meta3 := load("index_v3.lsi")
	v4, meta4 := load("index_v4.lsi")
	if len(meta2.Vocab) != 69 || len(meta2.DocIDs) != 12 || meta2.WeightingName != "log" {
		t.Fatalf("v2 metadata %+v", meta2)
	}
	if !reflect.DeepEqual(meta2, meta3) || !reflect.DeepEqual(meta2, meta4) {
		t.Fatalf("v3 metadata %+v or v4's %+v differs from v2's %+v", meta3, meta4, meta2)
	}
	for name, ix := range map[string]*lsi.Index{"v3": v3, "v4": v4} {
		if !mat.EqualApprox(ix.Basis(), v2.Basis(), 0) || !mat.EqualApprox(ix.DocVectors(), v2.DocVectors(), 0) {
			t.Fatalf("%s arrays differ from v2's", name)
		}
		for j := 0; j < v2.NumDocs(); j++ {
			if !reflect.DeepEqual(ix.AppendSearchProjected(nil, v2.DocVector(j), 5), v2.AppendSearchProjected(nil, v2.DocVector(j), 5)) {
				t.Fatalf("%s answers query %d differently from v2", name, j)
			}
		}
	}
}
