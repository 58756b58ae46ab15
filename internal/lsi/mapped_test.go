package lsi

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/blob"
	"repro/internal/par"
)

// onDisk writes data to a file of the test's own and opens it read-write.
func onDisk(t testing.TB, data []byte) *os.File {
	t.Helper()
	path := filepath.Join(t.TempDir(), "index.lsi")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// outcome is what a load came to, in a form two arms can be compared by:
// the error's text, or the bytes the loaded index saves as.
func outcome(t testing.TB, ix *Index, meta *Meta, err error) string {
	t.Helper()
	if err != nil {
		return "error: " + err.Error()
	}
	var buf bytes.Buffer
	if err := ix.SaveMeta(&buf, meta); err != nil {
		t.Fatalf("a loaded index does not save: %v", err)
	}
	return buf.String()
}

// Both golden container generations load into the same index whichever
// arm read it — a stream of bytes, the same bytes on the mapped arm, the
// file itself (mapped, on a platform that maps) — down to the bytes it
// saves as and the bits of every score, at one worker and at two. The file
// is served from its mapping (v3's basis; v4's basis and document matrix),
// indexes folded into their basis inherit that mapping, and they cannot be
// saved over.
func TestMappedAndStreamedLoadsAgree(t *testing.T) {
	for _, name := range []string{"index_v3.lsi", "index_v4.lsi"} {
		data, err := os.ReadFile("testdata/" + name)
		if err != nil {
			t.Fatal(err)
		}
		f := onDisk(t, data)
		_, mapErr := blob.Map(f)
		stream, streamMeta, err := LoadMeta(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		memory, memoryMeta, err := LoadMeta(blob.NewMappedReader(data))
		if err != nil {
			t.Fatalf("%s on the mapped arm: %v", name, err)
		}
		file, fileMeta, err := LoadMeta(f)
		if err != nil {
			t.Fatalf("%s from its file: %v", name, err)
		}
		// Mapped are the arrays left where they lie: the basis and σ, and
		// v4's float32 documents. Fold-ins copy the documents.
		var wantMapped, wantShared int64
		if mapErr == nil {
			k := int64(stream.K())
			wantShared = 8 * (int64(stream.NumTerms()) + 1) * k
			if wantMapped = wantShared; name == "index_v4.lsi" {
				wantMapped += 4 * int64(stream.NumDocs()) * k
			}
		}
		if stream.MappedBytes() != 0 || memory.MappedBytes() != 0 || file.MappedBytes() != wantMapped {
			t.Fatalf("%s: mapped bytes %d/%d/%d, want 0/0/%d (Map: %v)", name,
				stream.MappedBytes(), memory.MappedBytes(), file.MappedBytes(), wantMapped, mapErr)
		}
		want := outcome(t, stream, streamMeta, nil)
		if outcome(t, memory, memoryMeta, nil) != want || outcome(t, file, fileMeta, nil) != want {
			t.Fatalf("%s: the arms save different bytes", name)
		}
		for _, procs := range []int{1, 2} {
			old := par.SetMaxProcs(procs)
			for j := 0; j < stream.NumDocs(); j++ {
				for _, topN := range []int{3, 0} {
					want := stream.AppendSearchProjected(nil, stream.DocVector(j), topN)
					if !reflect.DeepEqual(memory.AppendSearchProjected(nil, stream.DocVector(j), topN), want) ||
						!reflect.DeepEqual(file.AppendSearchProjected(nil, stream.DocVector(j), topN), want) {
						t.Fatalf("%s MaxProcs=%d: the arms answer query %d (top %d) differently", name, procs, j, topN)
					}
				}
			}
			par.SetMaxProcs(old)
		}
		grown, err := file.ExtendedSparse([][]int{{0, 1}}, [][]float64{{1, 2}})
		if err != nil {
			t.Fatal(err)
		}
		if grown.MappedBytes() != wantShared || file.EmptyLike().MappedBytes() != wantShared {
			t.Fatalf("%s: an index sharing the basis does not share its mapping", name)
		}
		err = file.Save(f)
		if wantMapped > 0 && err == nil {
			t.Fatalf("%s: saved over the file it is mapped from", name)
		}
		if after, _ := os.ReadFile(f.Name()); wantMapped > 0 && !bytes.Equal(after, data) {
			t.Fatalf("%s: the refused save changed the file", name)
		}
	}
}

// A v3 or v4 file cut at every section boundary and one byte either side,
// with a flipped byte in every section, or with a section length pointing
// past the end of the file fails on the mapped arm — the file itself, and
// the bytes in memory — with the words of the streaming arm, and never
// faults.
func TestHostileFilesFailAlikeOnBothArms(t *testing.T) {
	for _, name := range []string{"index_v3.lsi", "index_v4.lsi"} {
		golden, err := os.ReadFile("testdata/" + name)
		if err != nil {
			t.Fatal(err)
		}
		hostileFilesFailAlike(t, golden)
	}
}

func hostileFilesFailAlike(t *testing.T, golden []byte) {
	// The file header is 12 bytes; a section is a 12-byte header, the
	// payload padded to 8, a 4-byte checksum.
	var bounds, lengthAt []int
	for at := 12; at < len(golden); {
		n := int(uint64(golden[at+4]) | uint64(golden[at+5])<<8 | uint64(golden[at+6])<<16) // sections of the golden are short
		payloadEnd := at + 12 + (n+7)&^7
		bounds, lengthAt = append(bounds, at, at+12, payloadEnd), append(lengthAt, at+4)
		at = payloadEnd + 4
	}
	if len(lengthAt) != 5 || bounds[len(bounds)-1]+4 != len(golden) {
		t.Fatalf("walked %d sections to byte %d of %d", len(lengthAt), bounds[len(bounds)-1]+4, len(golden))
	}
	hostile := map[string][]byte{}
	for _, b := range bounds {
		for _, cut := range []int{b - 1, b, b + 1} {
			hostile[fmt.Sprintf("cut at %d", cut)] = golden[:cut]
		}
	}
	for i, at := range lengthAt {
		flipped := bytes.Clone(golden)
		flipped[at+8+1] ^= 0x20 // the payload's second byte (TEXT is not empty in the golden)
		hostile[fmt.Sprintf("flip in section %d", i)] = flipped
		long := bytes.Clone(golden)
		long[at+3] = 0x40 // the length grows by 1 GiB: the same count of elements only for TEXT
		hostile[fmt.Sprintf("length of section %d past EOF", i)] = long
	}
	for name, data := range hostile {
		ix, meta, err := LoadMeta(bytes.NewReader(data))
		want := outcome(t, ix, meta, err)
		if err == nil {
			t.Errorf("%s: loaded", name)
		}
		ix, meta, err = LoadMeta(blob.NewMappedReader(data))
		if got := outcome(t, ix, meta, err); got != want {
			t.Errorf("%s: mapped arm %q, streaming arm %q", name, got, want)
		}
		ix, meta, err = LoadMeta(onDisk(t, data))
		if got := outcome(t, ix, meta, err); got != want {
			t.Errorf("%s: from its file %q, streaming arm %q", name, got, want)
		}
	}
}
