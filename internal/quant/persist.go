package quant

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
)

// The int8 part of a segment, a section of the shard layer's checkpoint
// file, is an internal/blob container (magic LSIQNT, version 3) of three
// sections:
//
//	DIMS  2 × uint64: dim, ndocs
//	SNRM  ndocs float64: sn[j] = scale[j]/‖row j‖, finite and ≥ 0
//	CODE  ndocs × dim int8, row-major, each in [-127, 127], of R·row j
//
// Read is total: a section is read only once its length is the one DIMS
// gives (so no header sizes an allocation), the container checks each
// section's CRC-32 and that nothing follows CODE, and sn and the codes
// must be values Quantize emits.
// Versions 1 (scales framed by hand) and 2 (codes of unrotated rows) are
// refused like any corrupt sidecar: the shard layer retrains the tier.

// WireVersion is the sidecar version Encode writes and the one Read accepts.
const WireVersion = 3

var magic = [blob.MagicLen]byte{'L', 'S', 'I', 'Q', 'N', 'T'}

const (
	tagDims, tagSN, tagCodes = "DIMS", "SNRM", "CODE"
	dimsLen                  = 2 * 8
)

// Encode serializes the matrix as a sidecar file.
func (m *Matrix) Encode() []byte {
	defer runtime.KeepAlive(m) // codes and sn may be views of m.mapped
	dims := binary.LittleEndian.AppendUint64(make([]byte, 0, dimsLen), uint64(m.dim))
	var buf bytes.Buffer
	buf.Grow(blob.EncodedSize(dimsLen, 8*len(m.sn), len(m.codes)))
	w := blob.NewWriter(&buf, magic, WireVersion, 3)
	w.Bytes(tagDims, binary.LittleEndian.AppendUint64(dims, uint64(m.NumDocs())))
	w.Floats(tagSN, m.sn)
	w.Int8s(tagCodes, m.codes)
	if err := w.Close(); err != nil {
		panic(err) // a bytes.Buffer takes every write
	}
	return buf.Bytes()
}

// Read parses a sidecar. Read from an *os.File that can be mapped, sn and
// the codes are views of the mapping, which the Matrix holds.
func Read(r io.Reader) (*Matrix, error) {
	m, err := read(blob.NewReader(r))
	if err != nil {
		return nil, fmt.Errorf("quant: %w", err)
	}
	return m, nil
}

func read(r *blob.Reader) (*Matrix, error) {
	if !r.HasMagic(magic) {
		return nil, errors.New("not an int8 sidecar")
	}
	if v := r.Header(); r.Err() == nil && v != WireVersion {
		return nil, fmt.Errorf("sidecar version %d is not supported by this build (it reads %d)", v, WireVersion)
	}
	dims := r.Bytes(tagDims, dimsLen)
	if r.Err() != nil {
		return nil, r.Err()
	}
	dim, ndocs := binary.LittleEndian.Uint64(dims), binary.LittleEndian.Uint64(dims[8:])
	if hi, n := bits.Mul64(dim, ndocs); dim < 1 || ndocs < 1 || hi != 0 || n > math.MaxInt/8 {
		return nil, fmt.Errorf("dimensions %d × %d are out of range", ndocs, dim)
	}
	m := &Matrix{dim: int(dim), sn: r.Floats(tagSN, int(ndocs)), codes: r.Int8s(tagCodes, int(dim*ndocs)), mapped: r.Mapping()}
	if err := r.End(); err != nil {
		return nil, err
	}
	for j, s := range m.sn {
		if math.IsNaN(s) || math.IsInf(s, 0) || s < 0 {
			return nil, fmt.Errorf("invalid sn %v for document %d", s, j)
		}
	}
	for i, c := range m.codes {
		if c < -MaxCode {
			return nil, fmt.Errorf("code %d out of range at element %d", c, i)
		}
	}
	m.rot = newRotation(m.dim) // once the codes have confirmed dim
	return m, nil
}
