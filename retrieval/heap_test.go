package retrieval

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/race"
)

// heapDocs is the benchmark ledger's document count and ID form (51,200
// documents named d000000 …) over its 1,600-term vocabulary; the texts
// are short, because what an open holds per document does not depend on
// their length.
func heapDocs() []Document {
	rng := rand.New(rand.NewSource(3))
	docs := make([]Document, 64*800)
	var b strings.Builder
	for i := range docs {
		b.Reset()
		for j := range 4 {
			if j > 0 {
				b.WriteByte(' ')
			}
			term := strconv.Itoa((i%64)*25 + rng.Intn(25))
			b.WriteString("x" + strings.Map(func(r rune) rune { return 'a' + r - '0' }, term))
		}
		docs[i] = Document{ID: fmt.Sprintf("d%06d", i), Text: b.String()}
	}
	return docs
}

// heapAfterGC is the live heap once the collector has run twice, which
// also empties the sync.Pools.
func heapAfterGC() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestOpenHeapIsCounted checks Stats' heap accounting against the heap
// itself at the ledger's size: an index file loaded from its bytes or
// opened from its path, and a saved directory opened from its path (its
// segments mapped), grow the live heap by what MemoryBytes − MappedBytes
// says, to within 8 bytes a document. Per-document state that the file
// maps or that a rule supplies must not sit on the heap uncounted, and
// MappedBytes counts only mapped arrays that MemoryBytes counts too.
func TestOpenHeapIsCounted(t *testing.T) {
	if !mapsFiles(t) {
		t.Skip("index files are not mapped on this platform")
	}
	if race.Enabled {
		t.Skip("heap sizes are not exact under the race detector")
	}
	docs := heapDocs()
	saved, file := filepath.Join(t.TempDir(), "saved"), filepath.Join(t.TempDir(), "index.lsi")
	ix, err := Build(docs, WithRank(8), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	var encoded bytes.Buffer
	if err := ix.Save(&encoded); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(file, encoded.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	sx, err := Build(docs, WithRank(8), WithSeed(1), WithShards(2), WithAutoCompact(false))
	if err == nil {
		err = sx.SaveDir(saved)
	}
	if err != nil {
		t.Fatal(err)
	}
	sx.Close()
	ix, sx, docs = nil, nil, nil

	for _, tc := range []struct {
		name string
		open func() (*Index, error)
	}{
		{"loaded file", func() (*Index, error) { return Load(bytes.NewReader(encoded.Bytes())) }},
		{"opened file", func() (*Index, error) { return Open(file) }},
		{"opened directory", func() (*Index, error) { return Open(saved, WithAutoCompact(false)) }},
	} {
		before := heapAfterGC()
		opened, err := tc.open()
		if err != nil {
			t.Fatal(err)
		}
		grown := heapAfterGC() - before
		st := opened.Stats()
		uncounted := float64(grown-(st.MemoryBytes-st.MappedBytes)) / float64(st.NumDocs)
		t.Logf("%s: heap +%d B, MemoryBytes %d, MappedBytes %d: %.2f B/doc uncounted",
			tc.name, grown, st.MemoryBytes, st.MappedBytes, uncounted)
		if uncounted >= 8 {
			t.Errorf("%s: %.2f B/doc of the heap is not in MemoryBytes − MappedBytes, want < 8", tc.name, uncounted)
		}
		opened.Close()
	}
}
