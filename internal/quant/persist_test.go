package quant

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/blob"
)

// version1Sidecar is an int8 sidecar as builds before version 2 wrote it:
// the one in the checkpoint the shard layer's tests keep.
const version1Sidecar = "../../retrieval/shard/testdata/v1-sidecars/quant-0-0-0.qnt"

// version2Sidecar is one as builds before the rotation wrote it: its codes
// quantize the unrotated rows.
const version2Sidecar = "../legacy/testdata/dir_v2_tiered/quant-0-0-0.qnt"

// frame writes a sidecar from raw parts, so the checks beneath the
// container's checksums are reachable.
func frame(dim, ndocs uint64, sn []float64, codes []byte) []byte {
	var buf bytes.Buffer
	w := blob.NewWriter(&buf, magic, WireVersion, 3)
	w.Bytes(tagDims, binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil, dim), ndocs))
	w.Floats(tagSN, sn)
	w.Bytes(tagCodes, codes)
	if err := w.Close(); err != nil {
		panic(err) // a bytes.Buffer takes every write
	}
	return buf.Bytes()
}

// decode reads data on both of blob's arms, streamed and as a mapping
// would be read, which must come to the same matrix or the same error.
func decode(t testing.TB, data []byte) (*Matrix, error) {
	t.Helper()
	m, err := Read(bytes.NewReader(data))
	mm, merr := Read(blob.NewMappedReader(data))
	if fmt.Sprint(err) != fmt.Sprint(merr) || (err == nil && !bytes.Equal(m.Encode(), mm.Encode())) {
		t.Fatalf("streamed: %v\nmapped:   %v", err, merr)
	}
	return m, err
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	vecs, _ := clusteredVecs(t, 300, 18, 5, 0.3, 21)
	qm := Quantize(vecs)
	enc := qm.Encode()
	got, err := decode(t, enc)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if got.dim != qm.dim || got.NumDocs() != qm.NumDocs() {
		t.Fatalf("shape = (%d, %d), want (%d, %d)", got.NumDocs(), got.dim, qm.NumDocs(), qm.dim)
	}
	for i := range qm.codes {
		if got.codes[i] != qm.codes[i] {
			t.Fatalf("code %d differs after round trip", i)
		}
	}
	for j := range qm.sn {
		if math.Float64bits(got.sn[j]) != math.Float64bits(qm.sn[j]) {
			t.Fatalf("sn %d differs after round trip", j)
		}
	}
	if !bytes.Equal(got.Encode(), enc) {
		t.Fatal("a read sidecar encodes to other bytes")
	}
}

func TestEncodeIsDeterministic(t *testing.T) {
	vecs, _ := clusteredVecs(t, 100, 8, 4, 0.3, 22)
	a, b := Quantize(vecs).Encode(), Quantize(vecs).Encode()
	if string(a) != string(b) {
		t.Fatal("two encodings of the same matrix differ")
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	vecs, _ := clusteredVecs(t, 40, 6, 3, 0.3, 23)
	enc := Quantize(vecs).Encode()
	// A byte flipped in the magic, the version, the section count or any
	// section, or one appended: a check or a checksum must catch it.
	if _, err := decode(t, append(bytes.Clone(enc), 0)); err == nil {
		t.Fatal("read a sidecar with a trailing byte")
	}
	for _, off := range []int{0, blob.MagicLen, blob.MagicLen + 2, 12 + 3, 12 + 12 + 5, len(enc) / 2, len(enc) - 10} {
		bad := bytes.Clone(enc)
		bad[off] ^= 0x40
		if _, err := decode(t, bad); err == nil {
			t.Fatalf("read a sidecar with byte %d corrupt", off)
		}
	}
	for cut := 0; cut < len(enc); cut += 13 {
		if _, err := decode(t, enc[:cut]); err == nil {
			t.Fatalf("read a sidecar truncated to %d bytes", cut)
		}
	}
}

func TestDecodeRejectsMalformedStructure(t *testing.T) {
	okSN := []float64{0.5, 0.25}
	okCodes := []byte{1, 2, 3, 0xff, 0x7f, 0x81} // 0x81 = -127, 0x7f = 127
	v1, err := os.ReadFile(version1Sidecar)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := os.ReadFile(version2Sidecar)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"bad magic", func() []byte {
			b := frame(3, 2, okSN, okCodes)
			b[0] = 'X'
			return b
		}()},
		{"future version", func() []byte {
			b := frame(3, 2, okSN, okCodes)
			binary.LittleEndian.PutUint16(b[blob.MagicLen:], WireVersion+1)
			return b
		}()},
		{"version 1", v1},
		{"version 2", v2},
		{"zero dim", frame(0, 2, okSN, nil)},
		{"zero ndocs", frame(3, 0, nil, nil)},
		{"short codes", frame(3, 2, okSN, okCodes[:5])},
		{"long codes", frame(3, 2, okSN, append(okCodes[:6:6], 0))},
		{"short sn", frame(3, 2, okSN[:1], okCodes)},
		{"nan sn", frame(3, 2, []float64{math.NaN(), 0.25}, okCodes)},
		{"inf sn", frame(3, 2, []float64{math.Inf(1), 0.25}, okCodes)},
		{"negative sn", frame(3, 2, []float64{-0.5, 0.25}, okCodes)},
		{"code -128", frame(3, 2, okSN, []byte{1, 2, 3, 4, 5, 0x80})},
		{"huge ndocs claim", frame(3, 1<<31-1, okSN, okCodes)},
		{"dimensions overflow", frame(1<<33, 1<<33, okSN, okCodes)},
	}
	for _, tc := range cases {
		if _, err := decode(t, tc.data); err == nil {
			t.Fatalf("%s: read a malformed sidecar", tc.name)
		}
	}
	for v, data := range [][]byte{1: v1, 2: v2} {
		if _, err := decode(t, data); v > 0 && !strings.Contains(fmt.Sprint(err), fmt.Sprintf("version %d", v)) {
			t.Fatalf("version-%d sidecar: %v, want an error naming version %d", v, err, v)
		}
	}
	// Sanity: the well-formed control frame reads.
	if _, err := decode(t, frame(3, 2, okSN, okCodes)); err != nil {
		t.Fatalf("control frame rejected: %v", err)
	}
}

// A sidecar read back — streamed, or mapped from its file — searches
// exactly like the in-memory original.
func TestDecodedMatrixSearches(t *testing.T) {
	vecs, norms := clusteredVecs(t, 400, 12, 5, 0.3, 24)
	qm := Quantize(vecs)
	enc := qm.Encode()
	streamed, err := decode(t, enc)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	path := filepath.Join(t.TempDir(), "quant.qnt")
	if err := os.WriteFile(path, enc, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	mapped, err := Read(f)
	if err != nil {
		t.Fatalf("Read from the file: %v", err)
	}
	queries, qns := searchQueries(vecs, 8, 25)
	for q := range queries {
		a, _ := qm.AppendSearch(nil, vecs, norms, queries[q], qns[q], 10, testBeta)
		for name, m := range map[string]*Matrix{"streamed": streamed, "file": mapped} {
			b, _ := m.AppendSearch(nil, vecs, norms, queries[q], qns[q], 10, testBeta)
			sameMatches(t, name, b, a)
		}
	}
}
