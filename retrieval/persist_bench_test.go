package retrieval

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/idtable"
	"repro/internal/ir"
	"repro/internal/lsi"
	"repro/internal/race"
)

// syntheticLSI is an LSI index of the given shape over random arrays,
// with a vocabulary and document IDs: what Save and Open cost depends on
// the shape alone, so nothing is decomposed to get it.
func syntheticLSI(tb testing.TB, docs, terms, k int) *Index {
	tb.Helper()
	rng := rand.New(rand.NewSource(1))
	floats := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		return v
	}
	li, err := lsi.NewIndexFromParts(lsi.IndexParts{
		K: k, NumTerms: terms, Sigma: floats(k),
		UkRows: terms, UkData: floats(terms * k),
		DocRows: docs, DocData: lsi.Narrow(floats(docs * k)),
	})
	if err != nil {
		tb.Fatal(err)
	}
	names := func(prefix string, n int) []string {
		s := make([]string, n)
		for i := range s {
			s[i] = fmt.Sprintf("%s%d", prefix, i)
		}
		return s
	}
	vocab, err := ir.NewVocabularyFromTerms(names("term", terms))
	if err != nil {
		tb.Fatal(err)
	}
	ix := &Index{textLayer: textLayer{vocab: vocab, weighting: WeightingLog, docIDs: idtable.Of(names("doc-", docs))}}
	if err := ix.freeze(li, config{}); err != nil {
		tb.Fatal(err)
	}
	return ix
}

// saveTo writes ix to path the way a caller with a file does, and
// returns the file's size.
func saveTo(tb testing.TB, ix *Index, path string) int64 {
	tb.Helper()
	f, err := os.Create(path)
	if err != nil {
		tb.Fatal(err)
	}
	if err := ix.Save(f); err != nil {
		tb.Fatal(err)
	}
	if err := f.Close(); err != nil {
		tb.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		tb.Fatal(err)
	}
	return info.Size()
}

// Opening an index file allocates little: from a path its arrays are
// views of the mapped file, and a quarter of the file's size covers what
// is left on the heap — document norms, the vocabulary and its map, the
// document IDs, the read window. Loaded from a stream, the arrays are read
// straight into the slices the index keeps, and the same quarter comes on
// top of the payload. (The gob decoder this replaced allocated seven times
// the file: a whole-message buffer, regrown slices.)
func TestOpenAllocatesLittleMoreThanTheFile(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation sizes are not exact under the race detector")
	}
	path := filepath.Join(t.TempDir(), "index.lsi")
	size := uint64(saveTo(t, syntheticLSI(t, 8000, 1000, 64), path))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	limits := map[string]uint64{"mapped": size / 4, "streamed": size * 5 / 4}
	if !mapsFiles(t) {
		limits["mapped"] = limits["streamed"]
	}
	for arm, open := range map[string]func() (*Index, error){
		"mapped":   func() (*Index, error) { return Open(path) },
		"streamed": func() (*Index, error) { return Load(bytes.NewReader(data)) },
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ix, err := open()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > limits[arm] {
			t.Errorf("%s: allocated %d bytes for a %d-byte file, limit %d", arm, got, size, limits[arm])
		}
		if ix.NumDocs() != 8000 {
			t.Fatalf("%s: opened %d documents", arm, ix.NumDocs())
		}
	}
}

// The benchmark corpus's shape: 51,200 documents at rank 64.
func benchShape(b *testing.B) *Index { return syntheticLSI(b, 51200, 2400, 64) }

func BenchmarkSave(b *testing.B) {
	ix := benchShape(b)
	path := filepath.Join(b.TempDir(), "index.lsi")
	b.SetBytes(saveTo(b, ix, path))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		saveTo(b, ix, path)
	}
}

func BenchmarkOpen(b *testing.B) {
	path := filepath.Join(b.TempDir(), "index.lsi")
	b.SetBytes(saveTo(b, benchShape(b), path))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Open(path); err != nil {
			b.Fatal(err)
		}
	}
}
