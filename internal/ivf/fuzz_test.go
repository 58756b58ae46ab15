package ivf

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/blob"
)

// FuzzDecodePostings drives the postings decoder — the layer that walks
// attacker-controlled varint streams — directly, through Read behind a
// valid container, and through Read on the raw bytes, each on both of
// blob's arms. Nothing may panic; accepted postings must be a strict
// permutation of [0, ndocs), and only a version-2 file is accepted (the
// version-1 golden is a seed).
func FuzzDecodePostings(f *testing.F) {
	// Seed with a real encoding's postings plus small hand-rolled streams.
	vecs, norms := clusteredVecs(f, 60, 5, 4, 0.3, 13)
	x, err := Train(vecs, norms, TrainOptions{NList: 6, Seed: 5})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(x.appendPostings(nil), uint16(6), uint16(60))
	f.Add(uvarints(1, 1, 1, 2), uint16(2), uint16(2))
	f.Add(uvarints(2, 1, 1), uint16(1), uint16(2))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, uint16(1), uint16(1))
	v1, err := os.ReadFile(filepath.Join("testdata", "ivf-v1.golden"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v1, uint16(5), uint16(40))
	f.Add(x.Encode(), uint16(6), uint16(60))

	f.Fuzz(func(t *testing.T, postings []byte, nlist16, ndocs16 uint16) {
		nlist := int(nlist16)%256 + 1
		ndocs := int(ndocs16)%4096 + 1
		starts, docs, err := decodePostings(postings, nlist, ndocs)
		if err == nil {
			if len(starts) != nlist+1 || len(docs) != ndocs {
				t.Fatalf("accepted postings with %d starts / %d docs for nlist=%d ndocs=%d",
					len(starts), len(docs), nlist, ndocs)
			}
			seen := make([]bool, ndocs)
			for c := 0; c < nlist; c++ {
				cell := docs[starts[c]:starts[c+1]]
				for i, d := range cell {
					if d < 0 || int(d) >= ndocs || seen[d] || (i > 0 && cell[i-1] >= d) {
						t.Fatalf("accepted invalid cell %d: %v", c, cell)
					}
					seen[d] = true
				}
			}
		}

		// The bytes as a whole file.
		if _, err := decode(t, postings); err == nil {
			if v := binary.LittleEndian.Uint16(postings[blob.MagicLen:]); v != WireVersion {
				t.Fatalf("accepted a version-%d file", v)
			}
		}

		// Same bytes behind a valid container: the full reader must stay
		// total too.
		full := frame(2, uint64(nlist), uint64(ndocs), 99, make([]float64, nlist*2), postings)
		if ix, err := decode(t, full); err == nil {
			if ix.NumDocs() != ndocs || ix.NList() != nlist {
				t.Fatalf("full read accepted mismatched shape %d/%d", ix.NumDocs(), ix.NList())
			}
		}
	})
}
