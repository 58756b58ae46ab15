package quant

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"testing"

	"repro/internal/blob"
)

// FuzzDecodeQuant drives the sidecar reader on attacker-controlled bytes,
// on both of blob's arms: raw (reaching the magic, version and container
// rejections; the version-1 sidecar is a seed) and re-framed as a valid
// container, so the fuzzer reaches the checks beneath the checksums.
// Nothing may panic and only a version-2 sidecar is accepted; an accepted
// one holds what Quantize guarantees — finite non-negative sn, codes
// inside the symmetric range — and re-encodes to the bytes it was read
// from.
func FuzzDecodeQuant(f *testing.F) {
	vecs, _ := clusteredVecs(f, 30, 5, 3, 0.3, 31)
	f.Add(Quantize(vecs).Encode(), uint16(5), uint16(30))
	f.Add(frame(3, 2, []float64{0.5, 0.25}, []byte{1, 2, 3, 4, 5, 6}), uint16(3), uint16(2))
	f.Add([]byte("LSIQNT junk"), uint16(1), uint16(1))
	f.Add([]byte{}, uint16(0), uint16(0))
	v1, err := os.ReadFile(version1Sidecar)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v1, uint16(4), uint16(40))

	f.Fuzz(func(t *testing.T, data []byte, dim16, ndocs16 uint16) {
		check := func(m *Matrix) {
			for j, s := range m.sn {
				if math.IsNaN(s) || math.IsInf(s, 0) || s < 0 {
					t.Fatalf("accepted invalid sn %v for document %d", s, j)
				}
			}
			for i, c := range m.codes {
				if c < -MaxCode {
					t.Fatalf("accepted out-of-range code %d at element %d", c, i)
				}
			}
			if again, err := Read(bytes.NewReader(m.Encode())); err != nil || !bytes.Equal(again.Encode(), m.Encode()) {
				t.Fatalf("an accepted sidecar does not read back: %v", err)
			}
		}
		if m, err := decode(t, data); err == nil {
			if v := binary.LittleEndian.Uint16(data[blob.MagicLen:]); v != WireVersion {
				t.Fatalf("accepted a version-%d sidecar", v)
			}
			check(m)
			if !bytes.Equal(m.Encode(), data) {
				t.Fatal("re-encode of an accepted sidecar differs")
			}
		}

		// The same payload behind a consistent container: sizes are forced
		// to agree so the fuzzer reaches the sn and code checks.
		dim := int(dim16)%64 + 1
		ndocs := int(ndocs16)%256 + 1
		body := make([]byte, 8*ndocs+ndocs*dim)
		copy(body, data)
		sn := make([]float64, ndocs)
		for j := range sn {
			sn[j] = math.Float64frombits(binary.LittleEndian.Uint64(body[8*j:]))
		}
		full := frame(uint64(dim), uint64(ndocs), sn, body[8*ndocs:])
		if m, err := decode(t, full); err == nil {
			if m.Dim() != dim || m.NumDocs() != ndocs {
				t.Fatalf("accepted mismatched shape (%d, %d), want (%d, %d)", m.NumDocs(), m.Dim(), ndocs, dim)
			}
			check(m)
			if !bytes.Equal(m.Encode(), full) {
				t.Fatal("re-encode of an accepted frame differs")
			}
		}
	})
}
