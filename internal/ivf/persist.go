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
// layer, is an internal/blob container (magic LSIIVF, version 3) of three
// sections:
//
//	DIMS  3 × uint64: dim, nlist, ndocs
//	CENT  nlist × dim float64: the centroids, row-major
//	CELL  ndocs uvarints: each document's cell, in row order
//
// Read leaves CENT where it lies in a mapped file and rebuilds the cell
// lists on the heap with buildPostings, the counting sort Train ends
// with, so they are a permutation of [0, ndocs) by construction: the
// assignment takes ~1 B a document on disk where raw int32 postings would
// take 4. Read is total: each section's length is checked against DIMS
// before it is read, the container checks each section's CRC-32 and that
// nothing follows CELL, the centroids must be finite and every cell
// number below nlist. Version 2, whose POST section held delta-coded
// postings, and version 1, a hand-rolled frame of the same fields, are
// refused like any corrupt sidecar: the shard layer retrains them.

// WireVersion is the sidecar version Encode writes and the one Read accepts.
const WireVersion = 3

var magic = [blob.MagicLen]byte{'L', 'S', 'I', 'I', 'V', 'F'}

const (
	tagDims, tagCent, tagCell = "DIMS", "CENT", "CELL"
	dimsLen                   = 3 * 8
)

// Encode serializes the index as a sidecar file.
func (x *Index) Encode() []byte {
	defer runtime.KeepAlive(x) // the centroids may be a view of x.mapped
	dims := make([]byte, 0, dimsLen)
	for _, v := range [...]uint64{uint64(x.dim), uint64(x.nlist), uint64(len(x.docs))} {
		dims = binary.LittleEndian.AppendUint64(dims, v)
	}
	assign := make([]uint32, len(x.docs))
	for c := 0; c < x.nlist; c++ {
		for _, d := range x.docs[x.cellStart[c]:x.cellStart[c+1]] {
			assign[d] = uint32(c)
		}
	}
	cells := make([]byte, 0, len(assign))
	for _, c := range assign {
		cells = binary.AppendUvarint(cells, uint64(c))
	}
	cent := x.centroids.RawData()
	var buf bytes.Buffer
	buf.Grow(blob.EncodedSize(dimsLen, 8*len(cent), len(cells)))
	w := blob.NewWriter(&buf, magic, WireVersion, 3)
	w.Bytes(tagDims, dims)
	w.Floats(tagCent, cent)
	w.Bytes(tagCell, cells)
	if err := w.Close(); err != nil {
		panic(err) // a bytes.Buffer takes every write
	}
	return buf.Bytes()
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
	cells := r.Bytes(tagCell, -1)
	if err := r.End(); err != nil {
		return nil, err
	}
	for i, v := range cent {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("non-finite centroid element %d", i)
		}
	}
	assign, err := decodeCells(cells, int(nlist), int(ndocs))
	if err != nil {
		return nil, err
	}
	starts, docs := buildPostings(assign, int(nlist))
	x := &Index{
		dim: int(dim), nlist: int(nlist),
		centroids: mat.NewDenseData(int(nlist), int(dim), cent), cnorms: make([]float64, nlist),
		cellStart: starts, docs: docs, mapped: r.Mapping(),
	}
	for c := range x.cnorms {
		x.cnorms[c] = mat.Norm(x.centroids.Row(c))
	}
	return x, nil
}

// decodeCells parses the CELL section: exactly ndocs uvarint cell
// numbers, each below nlist, and no trailing bytes. Allocation is bounded
// by the validated ndocs, which itself is bounded by len(data) (≥ 1 byte
// per document).
func decodeCells(data []byte, nlist, ndocs int) ([]int32, error) {
	if ndocs > len(data) {
		return nil, fmt.Errorf("cell section claims %d documents in %d bytes", ndocs, len(data))
	}
	assign := make([]int32, ndocs)
	off := 0
	for j := range assign {
		c, n := binary.Uvarint(data[off:])
		if n <= 0 {
			return nil, fmt.Errorf("document %d: truncated cell number", j)
		}
		if c >= uint64(nlist) {
			return nil, fmt.Errorf("document %d: cell %d out of range [0,%d)", j, c, nlist)
		}
		assign[j] = int32(c)
		off += n
	}
	if off != len(data) {
		return nil, fmt.Errorf("%d trailing bytes after the cell numbers", len(data)-off)
	}
	return assign, nil
}
