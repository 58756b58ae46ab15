package shard

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/blob"
	"repro/internal/faultinject"
)

// generation is a checkpoint file taken apart, for tests that edit one.
type generation struct {
	man   *manifest
	text  []byte
	parts [][]Part
}

// readGeneration takes dir's newest generation file apart.
func readGeneration(t testing.TB, dir string) *generation {
	t.Helper()
	path, _, err := Latest(dir)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	r := blob.NewReader(bytes.NewReader(data))
	man, err := readHead(r)
	if err != nil {
		t.Fatal(err)
	}
	g := &generation{man: man, text: r.Bytes(tagText, -1), parts: make([][]Part, man.Shards)}
	for s, segs := range man.Segments {
		for _, e := range segs {
			p := Part{Docs: e.Docs, Compacted: e.Compacted, Base: e.Base, Index: r.Bytes(tagSegment, -1)}
			if ann := r.Bytes(tagANN, -1); e.ANN {
				p.ANN = ann
			}
			if qnt := r.Bytes(tagQuant, -1); e.Quant {
				p.Quant = qnt
			}
			g.parts[s] = append(g.parts[s], p)
		}
	}
	if err := r.End(); err != nil {
		t.Fatal(err)
	}
	return g
}

// editCheckpoint rewrites dir's newest generation as the next one, with
// edit applied to its parts (a nil ANN or Quant drops that sidecar).
func editCheckpoint(t testing.TB, dir string, edit func(parts [][]Part)) {
	t.Helper()
	g := readGeneration(t, dir)
	edit(g.parts)
	if _, err := writeGeneration(faultinject.OS{}, dir, g.man, g.text, g.parts); err != nil {
		t.Fatal(err)
	}
}

// countParts counts the segments of dir's newest generation that carry an
// IVF and an int8 sidecar.
func countParts(t testing.TB, dir string) (ann, quant int) {
	t.Helper()
	for _, segs := range readGeneration(t, dir).parts {
		for _, p := range segs {
			if p.ANN != nil {
				ann++
			}
			if p.Quant != nil {
				quant++
			}
		}
	}
	return ann, quant
}

// onlyFile fails unless dir holds exactly one file, its newest generation.
func onlyFile(t testing.TB, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	path, _, err := Latest(dir)
	if err != nil || len(entries) != 1 || entries[0].Name() != filepath.Base(path) {
		t.Fatalf("the directory holds %v, want its newest generation alone (%v)", entries, err)
	}
}

// A directory an earlier build saved as many files, or none at all, does
// not open: the error says how to convert it.
func TestOpenRefusesOldDirectory(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"manifest.json", "ids-0.json", "seg-0-0-0.idx"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("{}"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := Open(dir, Config{}); err == nil || !strings.Contains(err.Error(), "lsiquery -upgrade") {
		t.Fatalf("opening an old directory: %v, want an error naming lsiquery -upgrade", err)
	}
}

// fuzzCheckpoint is a small tiered checkpoint: two shards, each segment
// with both sidecars.
func fuzzCheckpoint(f *testing.F) []byte {
	a := testMatrix(f, 3, 6, 24, 901)
	x, err := Build(a, defaultIDs(24), nil, Config{Shards: 2, Rank: 3, Seed: 5, ANNList: 3, Quantize: true, TierMinDocs: 1})
	if err != nil {
		f.Fatal(err)
	}
	defer x.Close()
	dir := f.TempDir()
	if err := x.SaveDir(dir); err != nil {
		f.Fatal(err)
	}
	path, _, err := Latest(dir)
	if err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	return data
}

// sections is where each section of a container starts (its header) and
// where its payload ends, by tag.
func sections(data []byte) (tags []string, starts, ends []int) {
	for off := 12; off+12 <= len(data); {
		n := int(binary.LittleEndian.Uint64(data[off+4:]))
		tags, starts, ends = append(tags, string(data[off:off+4])), append(starts, off), append(ends, off+12+n)
		off += 12 + (n+7)&^7 + 4
	}
	return tags, starts, ends
}

// FuzzOpenCheckpoint asserts the generation-file reader is total: any
// bytes — truncated, flipped, with hostile section lengths — open as a
// valid index or fail with an error, never a panic. Bytes changed only
// inside a sidecar's payload must not fail the open: the sidecar is
// derived state, counted as degraded and served by the exact scan. Run
// `go test -fuzz=FuzzOpenCheckpoint ./retrieval/shard` to explore further.
func FuzzOpenCheckpoint(f *testing.F) {
	valid := fuzzCheckpoint(f)
	tags, starts, ends := sections(valid)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:len(valid)-1])
	f.Add(valid[:12])
	for i, tag := range tags {
		long := bytes.Clone(valid) // a section claiming more bytes than follow
		binary.LittleEndian.PutUint64(long[starts[i]+4:], 1<<40)
		f.Add(long)
		flip := bytes.Clone(valid) // one byte of the payload flipped
		flip[(starts[i]+12+ends[i])/2] ^= 0x10
		f.Add(flip)
		if tag == tagANN || tag == tagQuant {
			torn := bytes.Clone(valid) // a sidecar's own header
			torn[starts[i]+12] ^= 0xff
			f.Add(torn)
		}
	}
	inDerived := func(at int) bool {
		for i, tag := range tags {
			if (tag == tagANN || tag == tagQuant) && at >= starts[i]+12 && at < ends[i] {
				return true
			}
		}
		return false
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		derivedOnly := len(data) == len(valid) && !bytes.Equal(data, valid)
		for i := range data {
			if derivedOnly && data[i] != valid[i] && !inDerived(i) {
				derivedOnly = false
			}
		}
		for _, r := range []*blob.Reader{blob.NewReader(bytes.NewReader(data)), blob.NewMappedReader(data)} {
			x, err := load(blob.NewReader(bytes.NewReader(data)), r, Config{})
			if err != nil {
				if derivedOnly {
					t.Fatalf("a checkpoint whose sidecar alone is damaged does not open: %v", err)
				}
				continue
			}
			if derivedOnly && x.SidecarsDegraded() == 0 {
				t.Fatal("a damaged sidecar was not counted as degraded")
			}
			x.SearchSparseOpts([]int{0}, []float64{1}, 3, routes["composed"])
			x.Close()
		}
	})
}
