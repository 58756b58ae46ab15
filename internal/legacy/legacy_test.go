package legacy

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/lsi"
)

// allocatedBy is how many bytes f allocated, whatever was freed since.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzLegacyIndex feeds Read the gob goldens — v1, v2 and the VSM stream
// an earlier build saved, which it refuses — their truncations and bit
// flips: whatever arrives, it returns an error or an index that answers a
// query, never panics, and allocates at most gob's allowance beyond a
// constant factor of the input. What it reads upgrades to a v4 stream that
// loads back with the same text layer, or fails to.
func FuzzLegacyIndex(f *testing.F) {
	for _, path := range []string{
		"../lsi/testdata/index_v1.gob",
		"../lsi/testdata/index_v2.gob",
		"../../retrieval/testdata/index_vsm_v2.gob",
	} {
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
	f.Fuzz(func(t *testing.T, data []byte) {
		var ix *lsi.Index
		var meta *lsi.Meta
		var err error
		got := allocatedBy(func() { ix, meta, err = Read(bytes.NewReader(data)) })
		// gob reads a message of whatever length is claimed (up to 1 GiB)
		// in steps of 10 MiB.
		if limit := uint64(1<<20 + 64*len(data) + 16<<20); got > limit {
			t.Fatalf("%d input bytes allocated %d (limit %d)", len(data), got, limit)
		}
		if err != nil {
			return
		}
		if ix.NumDocs() > 0 {
			ix.SearchProjected(ix.DocVector(0), 3)
		}
		if len(meta.Vocab) == 0 {
			return
		}
		up, err := Upgrade(data, nil)
		if err != nil {
			return
		}
		_, back, err := lsi.LoadMeta(bytes.NewReader(up))
		if err != nil {
			t.Fatalf("an upgraded stream does not load: %v", err)
		}
		if !reflect.DeepEqual(back, meta) {
			t.Fatalf("the text layer came back as %+v, want %+v", back, meta)
		}
	})
}

// TestReadRejectsUnknownVersion: a gob stream of a wire version outside
// 1..2 fails Read, and so Upgrade, with an error naming the version and
// the supported range.
func TestReadRejectsUnknownVersion(t *testing.T) {
	for _, version := range []int{0, 7, 99} {
		var buf bytes.Buffer
		wire := indexWire{Version: version, K: 1, NumTerms: 1, Sigma: []float64{1},
			UkRows: 1, UkData: []float64{1}, DocRows: 1, DocData: []float64{1}}
		if err := gob.NewEncoder(&buf).Encode(wire); err != nil {
			t.Fatal(err)
		}
		_, _, readErr := Read(bytes.NewReader(buf.Bytes()))
		_, upErr := Upgrade(buf.Bytes(), nil)
		for name, err := range map[string]error{"Read": readErr, "Upgrade": upErr} {
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("version %d ", version)) ||
				!strings.Contains(err.Error(), "supported: 1..2") {
				t.Fatalf("%s of a version-%d stream: %v, want an error naming the version and 1..2", name, version, err)
			}
		}
	}
}
