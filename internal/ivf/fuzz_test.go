package ivf

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/blob"
)

// FuzzDecodePostings drives the cell-assignment decoder — the layer that
// walks attacker-controlled varint streams — directly, through Read
// behind a valid container, and through Read on the raw bytes, each on
// both of blob's arms. Nothing may panic; an accepted assignment must
// name ndocs cells below nlist, and the cell lists Read rebuilds from it
// must be a strict permutation of [0, ndocs). Only a version-3 file is
// accepted (the version-1 and version-2 goldens are seeds).
func FuzzDecodePostings(f *testing.F) {
	// Seed with a real encoding's cell section plus small hand-rolled streams.
	vecs, norms := clusteredVecs(f, 60, 5, 4, 0.3, 13)
	x, err := Train(vecs, norms, TrainOptions{NList: 6, Seed: 5})
	if err != nil {
		f.Fatal(err)
	}
	assign := make([]uint64, x.NumDocs())
	for c := 0; c < x.nlist; c++ {
		for _, d := range x.docs[x.cellStart[c]:x.cellStart[c+1]] {
			assign[d] = uint64(c)
		}
	}
	f.Add(uvarints(assign...), uint16(6), uint16(60))
	f.Add(uvarints(0, 1), uint16(2), uint16(2))
	f.Add(uvarints(2, 1), uint16(1), uint16(2))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, uint16(1), uint16(1))
	for _, name := range []string{"ivf-v1.golden", "ivf-v2.golden"} {
		old, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(old, uint16(5), uint16(40))
	}
	f.Add(x.Encode(), uint16(6), uint16(60))

	f.Fuzz(func(t *testing.T, cells []byte, nlist16, ndocs16 uint16) {
		nlist := int(nlist16)%256 + 1
		ndocs := int(ndocs16)%4096 + 1
		if assign, err := decodeCells(cells, nlist, ndocs); err == nil {
			if len(assign) != ndocs {
				t.Fatalf("accepted %d cell numbers for ndocs=%d", len(assign), ndocs)
			}
			for j, c := range assign {
				if c < 0 || int(c) >= nlist {
					t.Fatalf("accepted cell %d for document %d, nlist=%d", c, j, nlist)
				}
			}
		}

		// The bytes as a whole file.
		if _, err := decode(t, cells); err == nil {
			if v := binary.LittleEndian.Uint16(cells[blob.MagicLen:]); v != WireVersion {
				t.Fatalf("accepted a version-%d file", v)
			}
		}

		// Same bytes behind a valid container: the full reader must stay
		// total too, and what it accepts holds every document once.
		full := frame(2, uint64(nlist), uint64(ndocs), make([]float64, nlist*2), cells)
		if ix, err := decode(t, full); err == nil {
			if ix.NumDocs() != ndocs || ix.NList() != nlist || len(ix.cellStart) != nlist+1 {
				t.Fatalf("full read accepted mismatched shape %d/%d", ix.NumDocs(), ix.NList())
			}
			seen := make([]bool, ndocs)
			for c := 0; c < nlist; c++ {
				cell := ix.docs[ix.cellStart[c]:ix.cellStart[c+1]]
				for i, d := range cell {
					if d < 0 || int(d) >= ndocs || seen[d] || (i > 0 && cell[i-1] >= d) {
						t.Fatalf("accepted invalid cell %d: %v", c, cell)
					}
					seen[d] = true
				}
			}
		}
	})
}
