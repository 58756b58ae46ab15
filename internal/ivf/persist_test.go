package ivf

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/blob"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden wire-format file")

func goldenIndex(t *testing.T) *Index {
	t.Helper()
	vecs, norms := clusteredVecs(t, 40, 6, 4, 0.3, 17)
	return trainT(t, vecs, norms, TrainOptions{NList: 5, Seed: 23})
}

// decode reads data on both of blob's arms, streamed and as a mapping
// would be read, which must come to the same index or the same error.
func decode(t testing.TB, data []byte) (*Index, error) {
	t.Helper()
	x, err := Read(bytes.NewReader(data))
	mx, merr := Read(blob.NewMappedReader(data))
	if fmt.Sprint(err) != fmt.Sprint(merr) || (err == nil && !bytes.Equal(x.Encode(), mx.Encode())) {
		t.Fatalf("streamed: %v\nmapped:   %v", err, merr)
	}
	return x, err
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	x := goldenIndex(t)
	got, err := decode(t, x.Encode())
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	sameIndex(t, x, got)
	for c := range x.cnorms {
		if math.Float64bits(x.cnorms[c]) != math.Float64bits(got.cnorms[c]) {
			t.Fatalf("cnorms[%d] differs after round trip", c)
		}
	}
}

// TestGoldenWireFormat pins the exact bytes of sidecar version 2:
// training is deterministic, so any drift in either the trainer or the
// encoder shows up as a byte diff against the committed file. Refresh
// with `go test ./internal/ivf -run TestGoldenWireFormat -update` after
// an intentional format bump. ivf-v1.golden, the same index as builds
// before version 2 wrote it, is refused with an error naming its version.
func TestGoldenWireFormat(t *testing.T) {
	enc := goldenIndex(t).Encode()
	path := filepath.Join("testdata", "ivf-v2.golden")
	if *updateGolden {
		if err := os.WriteFile(path, enc, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if len(enc) != len(want) {
		t.Fatalf("encoding is %d bytes, golden %d", len(enc), len(want))
	}
	for i := range enc {
		if enc[i] != want[i] {
			t.Fatalf("encoding differs from golden at byte %d: %#02x vs %#02x", i, enc[i], want[i])
		}
	}
	x, err := decode(t, want)
	if err != nil {
		t.Fatalf("Read golden: %v", err)
	}
	sameIndex(t, goldenIndex(t), x)
	v1, err := os.ReadFile(filepath.Join("testdata", "ivf-v1.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decode(t, v1); !strings.Contains(fmt.Sprint(err), "version 1") {
		t.Fatalf("version-1 golden: %v, want an error naming version 1", err)
	}
}

// TestDecodeCorrupt flips every byte of a valid encoding one at a time
// and truncates it at every length; each variant must error, never
// panic, never succeed. A byte appended after the last section is
// refused too.
func TestDecodeCorrupt(t *testing.T) {
	enc := goldenIndex(t).Encode()
	if _, err := decode(t, append(bytes.Clone(enc), 0)); err == nil {
		t.Fatal("Read with a trailing byte: want error")
	}
	for i := range enc {
		bad := bytes.Clone(enc)
		bad[i] ^= 0x41
		if _, err := decode(t, bad); err == nil {
			t.Fatalf("Read with byte %d flipped: want error", i)
		}
	}
	for n := 0; n < len(enc); n++ {
		if _, err := decode(t, enc[:n]); err == nil {
			t.Fatalf("Read truncated to %d bytes: want error", n)
		}
	}
}

// frame writes a sidecar from raw parts, so the structural checks beneath
// the container's checksums are reachable.
func frame(dim, nlist, ndocs uint64, seed int64, centroids []float64, postings []byte) []byte {
	dims := make([]byte, 0, dimsLen)
	for _, v := range []uint64{dim, nlist, ndocs, uint64(seed)} {
		dims = binary.LittleEndian.AppendUint64(dims, v)
	}
	var buf bytes.Buffer
	w := blob.NewWriter(&buf, magic, WireVersion, 3)
	w.Bytes(tagDims, dims)
	w.Floats(tagCent, centroids)
	w.Bytes(tagPost, postings)
	if err := w.Close(); err != nil {
		panic(err) // a bytes.Buffer takes every write
	}
	return buf.Bytes()
}

func uvarints(vs ...uint64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

func TestDecodeRejectsMalformedStructure(t *testing.T) {
	cent2 := []float64{1, 0, 0, 1} // 2 cells × dim 2
	v1, err := os.ReadFile(filepath.Join("testdata", "ivf-v1.golden"))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"bad magic", func() []byte {
			b := frame(2, 2, 2, 1, cent2, uvarints(1, 0, 1, 1))
			b[0] = 'X'
			return b
		}()},
		{"future version", func() []byte {
			b := frame(2, 2, 2, 1, cent2, uvarints(1, 1, 1, 2))
			binary.LittleEndian.PutUint16(b[blob.MagicLen:], WireVersion+1)
			return b
		}()},
		{"version 1", v1},
		{"zero dim", frame(0, 2, 2, 1, nil, uvarints(1, 1, 1, 1))},
		{"zero ndocs", frame(2, 2, 0, 1, cent2, nil)},
		{"dimensions overflow", frame(1<<33, 1<<33, 2, 1, nil, nil)},
		{"centroids past end", frame(1<<20, 1<<20, 2, 1, nil, nil)},
		{"nan centroid", frame(2, 2, 2, 1, []float64{math.NaN(), 0, 0, 1}, uvarints(1, 1, 1, 1))},
		{"delta zero", frame(2, 2, 2, 1, cent2, uvarints(2, 1, 0))},
		{"doc out of range", frame(2, 2, 2, 1, cent2, uvarints(1, 3, 1, 1))},
		{"duplicate across cells", frame(2, 2, 2, 1, cent2, uvarints(1, 1, 1, 1))},
		{"count overflow", frame(2, 2, 2, 1, cent2, uvarints(9, 1, 1, 1))},
		{"missing documents", frame(2, 2, 2, 1, cent2, uvarints(1, 1, 0))},
		{"truncated postings", frame(2, 2, 2, 1, cent2, uvarints(2, 1))},
		{"trailing bytes", frame(2, 2, 2, 1, cent2, uvarints(1, 1, 1, 2, 0))},
	}
	for _, tc := range cases {
		if _, err := decode(t, tc.data); err == nil {
			t.Errorf("%s: want error, got nil", tc.name)
		}
	}
	if _, err := decode(t, frame(2, 2, 2, 1, cent2, uvarints(1, 1, 1, 2))); err != nil {
		t.Fatalf("control frame rejected: %v", err)
	}
}
