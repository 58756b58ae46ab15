package lsi

import (
	"bytes"
	"encoding/binary"
	"io"
	"os"
	"runtime"
	"testing"

	"repro/internal/blob"
	"repro/internal/corpus"
	"repro/internal/mat"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	c := testCorpus(t, 3, 10, 0.05, 30, 241)
	a := corpus.TermDocMatrix(c, corpus.CountWeighting)
	ix, err := Build(a, 3, Options{Engine: EngineDense})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.K() != ix.K() || loaded.NumDocs() != ix.NumDocs() || loaded.NumTerms() != ix.NumTerms() {
		t.Fatalf("shape mismatch after load: k=%d docs=%d terms=%d",
			loaded.K(), loaded.NumDocs(), loaded.NumTerms())
	}
	if !mat.EqualApprox(loaded.DocVectors(), ix.DocVectors(), 0) {
		t.Fatal("document vectors changed through save/load")
	}
	if !mat.EqualApprox(loaded.Basis(), ix.Basis(), 0) {
		t.Fatal("basis changed through save/load")
	}
	// The loaded index must answer queries identically.
	q := a.Col(5)
	want := ix.Search(q, 5)
	got := loaded.Search(q, 5)
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("search result %d differs: %+v vs %+v", i, want[i], got[i])
		}
	}
	// And accept fold-ins.
	id, err := loaded.AppendDocument(a.Col(0))
	if err != nil {
		t.Fatal(err)
	}
	if mat.Dist(loaded.DocVector(id), loaded.DocVector(0)) > 1e-10 {
		t.Fatal("fold-in on a loaded index is wrong")
	}
}

func TestLoadRejectsCorruptStreams(t *testing.T) {
	c := testCorpus(t, 2, 6, 0, 8, 242)
	ix, err := BuildFromCorpus(c, 2, corpus.CountWeighting, Options{Engine: EngineDense})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	// Truncated stream.
	if _, err := Load(bytes.NewReader(full[:len(full)/2])); err == nil {
		t.Error("truncated stream should fail to load")
	}
	// Garbage stream.
	if _, err := Load(bytes.NewReader([]byte("not an index"))); err == nil {
		t.Error("garbage stream should fail to load")
	}
	// Empty stream.
	if _, err := Load(bytes.NewReader(nil)); err == nil {
		t.Error("empty stream should fail to load")
	}
}

// header is a v3 or v4 file up to and including its dimensions, followed
// by a SIGM section of k zeros and an empty TEXT: what a hostile file needs
// before it can lie about an array. Its arrays hold at most 64 values, in
// the version's widths.
func header(version uint16, k, terms, docs uint64) *bytes.Buffer {
	var buf bytes.Buffer
	w := blob.NewWriter(&buf, Magic, version, 5)
	var dims []byte
	for _, d := range []uint64{k, terms, docs} {
		dims = binary.LittleEndian.AppendUint64(dims, d)
	}
	w.Bytes(tagDims, dims)
	sigma := make([]float64, min(k, 8))
	w.Floats(tagSigma, sigma)
	w.Bytes(tagText, nil)
	w.Floats(tagBasis, make([]float64, min(k*terms, 64)))
	if version == wideDocsVersion {
		w.Floats(tagDocs, make([]float64, min(k*docs, 64)))
	} else {
		w.Float32s(tagDocs, make([]float32, min(k*docs, 64)))
	}
	if err := w.Close(); err != nil {
		panic(err) // a bytes.Buffer takes every write
	}
	return &buf
}

// allocatedBy is how many bytes f allocated, whatever was freed since.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// A header may claim any dimensions; what the decoder allocates is bound
// by the bytes that follow it, and a product that overflows is rejected
// rather than wrapped into a match.
func TestLoadBoundsAllocationByInput(t *testing.T) {
	for _, version := range []uint16{wideDocsVersion, WireVersion} {
		if _, err := Load(header(version, 2, 4, 8)); err != nil {
			t.Fatalf("v%d: an honest header fails: %v", version, err)
		}
		for name, dims := range map[string][3]uint64{
			"huge document matrix": {8, 8, 1 << 40},
			"huge basis":           {8, 1 << 40, 8},
			"huge rank":            {1 << 40, 8, 8},
			"overflowing product":  {1 << 32, 1 << 32, 1 << 32},
			"wrapping to a match":  {8, 8, 1<<61 + 8},
			"rank zero, rows many": {0, 8, 1 << 40},
			"beyond int":           {8, 8, 1 << 63},
		} {
			data := header(version, dims[0], dims[1], dims[2]).Bytes()
			for _, sized := range []bool{true, false} {
				var src io.Reader = bytes.NewReader(data)
				if !sized {
					src = struct{ io.Reader }{src}
				}
				var err error
				got := allocatedBy(func() { _, err = Load(src) })
				if err == nil {
					t.Errorf("v%d %s (sized=%v): loaded", version, name, sized)
				}
				if got > 1<<20 {
					t.Errorf("v%d %s (sized=%v): allocated %d bytes for a %d-byte file", version, name, sized, got, len(data))
				}
			}
		}
	}
}

// FuzzLoadIndex feeds LoadMeta the four golden generations, the VSM gob
// stream an earlier build saved (which it refuses), their truncations and
// bit flips, and lying headers: whatever arrives, it
// returns an error or an index that answers a query, never panics, and
// never allocates more than a constant factor of the input. The mapped
// arm comes to the same end: the same error, or an index that saves as
// the same bytes.
func FuzzLoadIndex(f *testing.F) {
	seed := func(path string) {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(data[:len(data)/2])
		f.Add(data[:len(data)-1])
		for _, at := range []int{8, 20, len(data) / 3, len(data) - 2} {
			bad := bytes.Clone(data)
			bad[at] ^= 0x40
			f.Add(bad)
		}
	}
	for _, name := range []string{"index_v1.gob", "index_v2.gob", "index_v3.lsi"} {
		seed("testdata/" + name)
	}
	f.Add(header(wideDocsVersion, 8, 8, 1<<40).Bytes())
	seed("testdata/index_v4.lsi")
	f.Add(header(WireVersion, 8, 8, 1<<40).Bytes())
	f.Add(header(WireVersion, 3, 8, 7).Bytes()[:300]) // cut inside the float32 DOCS
	seed("../../retrieval/testdata/index_vsm_v2.gob")
	f.Fuzz(func(t *testing.T, data []byte) {
		var ix *Index
		var meta *Meta
		var err error
		got := allocatedBy(func() { ix, meta, err = LoadMeta(bytes.NewReader(data)) })
		// blob's window and the index's own bookkeeping are the constant.
		// A gob stream gets gob's on top: it reads a message of whatever
		// length is claimed (up to 1 GiB) in steps of 10 MiB.
		limit := uint64(1<<20 + 64*len(data))
		if !bytes.HasPrefix(data, Magic[:]) {
			limit += 16 << 20
		}
		if got > limit {
			t.Fatalf("%d input bytes allocated %d (limit %d)", len(data), got, limit)
		}
		mix, mmeta, merr := LoadMeta(blob.NewMappedReader(data))
		if want, got := outcome(t, ix, meta, err), outcome(t, mix, mmeta, merr); got != want {
			t.Fatalf("mapped arm: %.200q\nstreaming arm: %.200q", got, want)
		}
		if err != nil {
			return
		}
		if ix.NumDocs() > 0 {
			ix.SearchProjected(ix.DocVector(0), 3)
		}
		if meta != nil && len(meta.Vocab) > 0 && len(meta.Vocab) != ix.NumTerms() {
			t.Fatalf("vocabulary of %d terms on an index of %d", len(meta.Vocab), ix.NumTerms())
		}
	})
}
