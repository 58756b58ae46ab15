package ivf

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"runtime"

	"repro/internal/blob"
	"repro/internal/mat"
)

// The sidecar file, written next to its segment's seg-*.idx by the shard
// layer, is an internal/blob container (magic LSIIVF, version 2) of three
// sections:
//
//	DIMS  4 × uint64: dim, nlist, ndocs, seed
//	CENT  nlist × dim float64: the centroids, row-major
//	POST  per cell: uvarint count, then count uvarint deltas (strictly
//	      ascending doc ids, delta from previous+1 ≥ 1)
//
// Read leaves CENT where it lies in a mapped file and decodes the postings
// onto the heap: raw int32 would take ~4 B a document where the deltas
// take ~1.2. Read is total: each section's length is checked against DIMS
// before it is read, the container checks each section's CRC-32 and
// that nothing follows POST, the centroids must be finite and the postings a strict permutation of
// [0, ndocs). Version 1, a hand-rolled frame of the same fields, is
// refused like any corrupt sidecar: the shard layer retrains it.

// WireVersion is the sidecar version Encode writes and the one Read accepts.
const WireVersion = 2

var magic = [blob.MagicLen]byte{'L', 'S', 'I', 'I', 'V', 'F'}

const (
	tagDims, tagCent, tagPost = "DIMS", "CENT", "POST"
	dimsLen                   = 4 * 8
)

// Encode serializes the index as a sidecar file.
func (x *Index) Encode() []byte {
	defer runtime.KeepAlive(x) // the centroids may be a view of x.mapped
	dims := make([]byte, 0, dimsLen)
	for _, v := range [...]uint64{uint64(x.dim), uint64(x.nlist), uint64(len(x.docs)), uint64(x.seed)} {
		dims = binary.LittleEndian.AppendUint64(dims, v)
	}
	cent, post := x.centroids.RawData(), x.appendPostings(nil)
	var buf bytes.Buffer
	buf.Grow(blob.EncodedSize(dimsLen, 8*len(cent), len(post)))
	w := blob.NewWriter(&buf, magic, WireVersion, 3)
	w.Bytes(tagDims, dims)
	w.Floats(tagCent, cent)
	w.Bytes(tagPost, post)
	if err := w.Close(); err != nil {
		panic(err) // a bytes.Buffer takes every write
	}
	return buf.Bytes()
}

// appendPostings appends the POST section's payload to b.
func (x *Index) appendPostings(b []byte) []byte {
	for c := 0; c < x.nlist; c++ {
		cell := x.docs[x.cellStart[c]:x.cellStart[c+1]]
		b = binary.AppendUvarint(b, uint64(len(cell)))
		prev := int32(-1)
		for _, d := range cell {
			b = binary.AppendUvarint(b, uint64(d-prev))
			prev = d
		}
	}
	return b
}

// Read parses a sidecar. Read from an *os.File that can be mapped, the
// centroids are a view of the mapping, which the Index holds.
func Read(r io.Reader) (*Index, error) {
	x, err := read(blob.NewReader(r))
	if err != nil {
		return nil, fmt.Errorf("ivf: %w", err)
	}
	return x, nil
}

func read(r *blob.Reader) (*Index, error) {
	if !r.HasMagic(magic) {
		return nil, errors.New("not an IVF sidecar")
	}
	if v := r.Header(); r.Err() == nil && v != WireVersion {
		return nil, fmt.Errorf("sidecar version %d is not supported by this build (it reads %d)", v, WireVersion)
	}
	dims := r.Bytes(tagDims, dimsLen)
	if r.Err() != nil {
		return nil, r.Err()
	}
	dim, nlist, ndocs := binary.LittleEndian.Uint64(dims), binary.LittleEndian.Uint64(dims[8:]), binary.LittleEndian.Uint64(dims[16:])
	if hi, n := bits.Mul64(nlist, dim); dim < 1 || nlist < 1 || ndocs < 1 || ndocs > math.MaxInt32 || hi != 0 || n > math.MaxInt/8 {
		return nil, fmt.Errorf("dimensions dim=%d nlist=%d ndocs=%d are out of range", dim, nlist, ndocs)
	}
	cent := r.Floats(tagCent, int(nlist*dim))
	post := r.Bytes(tagPost, -1)
	if err := r.End(); err != nil {
		return nil, err
	}
	for i, v := range cent {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("non-finite centroid element %d", i)
		}
	}
	starts, docs, err := decodePostings(post, int(nlist), int(ndocs))
	if err != nil {
		return nil, err
	}
	x := &Index{
		dim: int(dim), nlist: int(nlist), seed: int64(binary.LittleEndian.Uint64(dims[24:])),
		centroids: mat.NewDenseData(int(nlist), int(dim), cent), cnorms: make([]float64, nlist),
		cellStart: starts, docs: docs, mapped: r.Mapping(),
	}
	for c := range x.cnorms {
		x.cnorms[c] = mat.Norm(x.centroids.Row(c))
	}
	return x, nil
}

// decodePostings parses the delta-coded cell lists and validates that
// they form a strict permutation of [0, ndocs): every id in range,
// strictly ascending within its cell, no id in two cells, all ndocs
// present, no trailing bytes. Allocation is bounded by the validated
// ndocs, which itself is bounded by len(data) (≥ 1 byte per posting).
func decodePostings(data []byte, nlist, ndocs int) (starts []int, docs []int32, err error) {
	if ndocs > len(data) {
		return nil, nil, fmt.Errorf("postings claim %d documents in %d bytes", ndocs, len(data))
	}
	starts = make([]int, nlist+1)
	docs = make([]int32, 0, ndocs)
	seen := make([]uint64, (ndocs+63)/64)
	off := 0
	for c := 0; c < nlist; c++ {
		cnt, n := binary.Uvarint(data[off:])
		if n <= 0 {
			return nil, nil, fmt.Errorf("cell %d: truncated count", c)
		}
		off += n
		if cnt > uint64(ndocs-len(docs)) {
			return nil, nil, fmt.Errorf("cell %d holds %d documents, only %d unaccounted", c, cnt, ndocs-len(docs))
		}
		prev := int64(-1)
		for i := uint64(0); i < cnt; i++ {
			d, n := binary.Uvarint(data[off:])
			if n <= 0 {
				return nil, nil, fmt.Errorf("cell %d: truncated posting %d", c, i)
			}
			off += n
			if d == 0 || d > uint64(ndocs) {
				return nil, nil, fmt.Errorf("cell %d: delta %d out of range", c, d)
			}
			v := prev + int64(d)
			if v >= int64(ndocs) {
				return nil, nil, fmt.Errorf("cell %d: document %d out of range [0,%d)", c, v, ndocs)
			}
			if seen[v/64]&(1<<(v%64)) != 0 {
				return nil, nil, fmt.Errorf("document %d appears in two cells", v)
			}
			seen[v/64] |= 1 << (v % 64)
			docs = append(docs, int32(v))
			prev = v
		}
		starts[c+1] = len(docs)
	}
	if len(docs) != ndocs {
		return nil, nil, fmt.Errorf("postings hold %d of %d documents", len(docs), ndocs)
	}
	if off != len(data) {
		return nil, nil, fmt.Errorf("%d trailing bytes after postings", len(data)-off)
	}
	return starts, docs, nil
}
