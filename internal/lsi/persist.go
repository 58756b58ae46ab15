package lsi

import (
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"os"
	"runtime"
	"strings"
	"unsafe"

	"repro/internal/blob"
	"repro/internal/mat"
)

// Wire format v4, what Save writes, is an internal/blob container of five
// sections in this order (DESIGN.md §2 has the byte layout):
//
//	DIMS  3 × uint64: rank k, terms n, documents m
//	SIGM  k float64: singular values
//	TEXT  text layer of Meta (see appendText); empty when there is none
//	BASI  n×k float64: the basis Uₖ, row-major
//	DOCS  m×k float32: document representations, row-major
//
// v3 is the same with DOCS in float64, v1 and v2 one gob message
// (indexWire): Load still reads them, narrowing DOCS once into the heap.

// Magic opens every index file Save writes.
var Magic = [blob.MagicLen]byte{'L', 'S', 'I', 'I', 'D', 'X'}

const (
	// WireVersion is the wire-format version Save writes and the newest
	// Load accepts; gobWireVersion is the newest a gob stream carries.
	WireVersion     = 4
	gobWireVersion  = 2
	wideDocsVersion = 3 // the newest container whose DOCS are float64

	tagDims, tagSigma, tagText, tagBasis, tagDocs = "DIMS", "SIGM", "TEXT", "BASI", "DOCS"

	dimsLen = 3 * 8
)

// versionError is the error (less the caller's prefix) for a stream of a
// version this build cannot read, shared by the gob and container readers
// so the two messages can never skew.
func versionError(v int) error {
	return fmt.Errorf("index format version %d is not supported by this build (supported: 1..%d); rebuild the index or upgrade",
		v, WireVersion)
}

// indexWire is the gob message of wire versions 1 and 2 (gob matches
// fields by name, so v1 streams decode with the v2 fields left zero):
//
//	v1: numeric payload only.
//	v2: adds the optional self-containment metadata of Meta.
//
// Backend is set only in the streams an earlier build saved for its VSM
// baseline ("vsm", the term-document matrix in fields this struct does
// not name); readGob refuses them.
type indexWire struct {
	Version  int
	Backend  string
	K        int
	NumTerms int
	Sigma    []float64
	UkRows   int
	UkData   []float64
	DocRows  int
	DocData  []float64

	Vocab           []string
	WeightingName   string
	DocIDs          []string
	RemoveStopwords bool
	Stemming        bool
}

// Meta is the optional self-containment metadata stored alongside an index
// by SaveMeta: everything the text layer needs to turn a query string into
// a term-space vector against this index, plus stable external document
// IDs. The lsi package itself does not interpret it — the public retrieval
// package does.
type Meta struct {
	// Vocab lists the vocabulary terms in term-ID order; its length must
	// equal the index's NumTerms.
	Vocab []string
	// WeightingName names the corpus.Weighting the term-document matrix
	// was built with (e.g. "log").
	WeightingName string
	// DocIDs lists external document identifiers in document order; its
	// length must equal the index's NumDocs.
	DocIDs []string
	// RemoveStopwords and Stemming record the text-pipeline configuration
	// used at build time, so queries are preprocessed identically.
	RemoveStopwords bool
	Stemming        bool
}

// Save writes the index to w in a self-contained binary format (wire v4).
// The original term-document matrix is not needed to use a loaded index.
// Indexes written by Save carry no text metadata; use SaveMeta to bundle a
// vocabulary and weighting so text queries work against the loaded index.
func (ix *Index) Save(w io.Writer) error {
	return ix.SaveMeta(w, nil)
}

// EncodedSize is the exact number of bytes Save writes.
func (ix *Index) EncodedSize() int {
	return blob.EncodedSize(dimsLen, 8*len(ix.sigma), 0, 8*len(ix.uk.RawData()), 4*len(ix.docs.RawData()))
}

// SaveMeta writes the index together with optional self-containment
// metadata (nil meta is allowed and equivalent to Save). It validates that
// the metadata dimensions match the index before writing anything.
func (ix *Index) SaveMeta(w io.Writer, meta *Meta) error {
	var text []byte
	if !meta.Empty() {
		if len(meta.Vocab) > 0 && len(meta.Vocab) != ix.numTerms {
			return fmt.Errorf("lsi: save: vocabulary has %d terms, index has %d", len(meta.Vocab), ix.numTerms)
		}
		if len(meta.DocIDs) > 0 && len(meta.DocIDs) != ix.NumDocs() {
			return fmt.Errorf("lsi: save: %d doc IDs for %d documents", len(meta.DocIDs), ix.NumDocs())
		}
		text = appendText(nil, meta)
	}
	if f, ok := w.(*os.File); ok && ix.mapped != nil && ix.mapped.Holds(f) {
		return errors.New("lsi: save: the destination is the mapped file this index was opened from; save to a new file and rename it")
	}
	defer runtime.KeepAlive(ix) // the arrays may be views of ix.mapped
	bw := blob.NewWriter(w, Magic, WireVersion, 5)
	dims := make([]byte, 0, dimsLen)
	for _, d := range [...]int{ix.k, ix.numTerms, ix.NumDocs()} {
		dims = binary.LittleEndian.AppendUint64(dims, uint64(d))
	}
	bw.Bytes(tagDims, dims)
	bw.Floats(tagSigma, ix.sigma)
	bw.Bytes(tagText, text)
	bw.Floats(tagBasis, ix.uk.RawData())
	bw.Float32s(tagDocs, ix.docs.RawData())
	if err := bw.Close(); err != nil {
		return fmt.Errorf("lsi: save: %w", err)
	}
	return nil
}

// Empty reports whether there is no text layer to store: a nil Meta, or
// one without vocabulary, document IDs or weighting.
func (m *Meta) Empty() bool {
	return m == nil || (len(m.Vocab) == 0 && len(m.DocIDs) == 0 && m.WeightingName == "")
}

// appendText encodes the TEXT section: one flags byte (bit 0
// RemoveStopwords, bit 1 Stemming), then three lists — the weighting
// name alone, the vocabulary, the document IDs. A list is a uvarint
// count and its strings, a string a uvarint length and its bytes.
func appendText(b []byte, m *Meta) []byte {
	var flags byte
	if m.RemoveStopwords {
		flags |= 1
	}
	if m.Stemming {
		flags |= 2
	}
	b = append(b, flags)
	for _, list := range [...][]string{{m.WeightingName}, m.Vocab, m.DocIDs} {
		b = binary.AppendUvarint(b, uint64(len(list)))
		for _, s := range list {
			b = append(binary.AppendUvarint(b, uint64(len(s))), s...)
		}
	}
	return b
}

// parseText decodes a TEXT section (b is not empty), which it takes over:
// the strings are views of b, never written again. Every count and length
// is checked against the bytes left (a string costs at least one) before
// anything is sized by it.
func parseText(b []byte) (*Meta, error) {
	s, off := unsafe.String(unsafe.SliceData(b), len(b)), 1
	next := func() int {
		v, w := binary.Uvarint(b[off:])
		if w <= 0 || v > uint64(len(b)-off-w) {
			return -1
		}
		off += w
		return int(v)
	}
	var lists [3][]string
	for i := range lists {
		n := next()
		if n > 0 {
			lists[i] = make([]string, n)
		}
		for j := 0; j < len(lists[i]) && n >= 0; j++ {
			if n = next(); n >= 0 {
				lists[i][j], off = s[off:off+n], off+n
			}
		}
		if n < 0 {
			return nil, errors.New("corrupt text section")
		}
	}
	if off != len(b) || len(lists[0]) != 1 {
		return nil, errors.New("corrupt text section")
	}
	return &Meta{
		WeightingName: lists[0][0], Vocab: lists[1], DocIDs: lists[2],
		RemoveStopwords: b[0]&1 != 0, Stemming: b[0]&2 != 0,
	}, nil
}

// IndexParts is the validated raw material of a persisted Index — the
// wire payload a loader hands to NewIndexFromParts. The public retrieval
// package decodes its own wire envelope into these parts so the stream is
// read exactly once.
type IndexParts struct {
	K        int
	NumTerms int
	Sigma    []float64
	UkRows   int
	UkData   []float64 // n×k row-major basis
	DocRows  int
	DocData  []float32 // m×k row-major document representations
}

// NewIndexFromParts reconstructs an Index from serialized parts,
// validating every dimension (the data slices are adopted, not copied).
func NewIndexFromParts(p IndexParts) (*Index, error) {
	if p.K < 1 || p.NumTerms <= 0 || len(p.Sigma) != p.K {
		return nil, fmt.Errorf("lsi: load: corrupt header (k=%d, terms=%d, sigmas=%d)",
			p.K, p.NumTerms, len(p.Sigma))
	}
	if p.UkRows != p.NumTerms || !holds(p.UkData, p.UkRows, p.K) {
		return nil, fmt.Errorf("lsi: load: corrupt basis (%d rows, %d values)", p.UkRows, len(p.UkData))
	}
	if !holds(p.DocData, p.DocRows, p.K) {
		return nil, fmt.Errorf("lsi: load: corrupt document matrix (%d rows, %d values)",
			p.DocRows, len(p.DocData))
	}
	// Document norms are recomputed here rather than persisted, so every
	// wire version loads into a norm-carrying index.
	return newIndex(
		p.K,
		p.NumTerms,
		mat.NewDenseData(p.UkRows, p.K, p.UkData),
		p.Sigma,
		mat.NewDense32Data(p.DocRows, p.K, p.DocData),
		nil,
	), nil
}

// Narrow rounds a legacy float64 document matrix to IndexParts.DocData.
func Narrow(docs []float64) []float32 {
	out := make([]float32, len(docs))
	mat.Convert(out, docs)
	return out
}

// holds reports whether data is exactly a rows×k matrix. The product is
// taken in 128 bits: a hostile header cannot overflow it into a match.
func holds[F float32 | float64](data []F, rows, k int) bool {
	hi, lo := bits.Mul64(uint64(rows), uint64(k))
	return rows >= 0 && k >= 0 && hi == 0 && lo == uint64(len(data))
}

// Load reads an index previously written by Save or SaveMeta (any
// supported wire version), discarding metadata if present.
func Load(r io.Reader) (*Index, error) {
	ix, _, err := LoadMeta(r)
	return ix, err
}

// LoadMeta reads an index and its self-containment metadata. The metadata
// is nil for v1 streams and for indexes saved without it (plain Save);
// such indexes answer vector queries but the caller must supply a
// vocabulary from elsewhere to serve text queries.
//
// A v3 or v4 stream is never trusted for more memory than it has bytes:
// see blob.Reader for how the length of r is found, or done without.
func LoadMeta(r io.Reader) (*Index, *Meta, error) {
	br := blob.NewReader(r)
	read := readGob
	if br.HasMagic(Magic) {
		read = readBlob
	}
	p, meta, err := read(br)
	if err != nil {
		return nil, nil, fmt.Errorf("lsi: load: %w", err)
	}
	ix, err := NewIndexFromParts(p)
	if err != nil {
		return nil, nil, err
	}
	if ix.mapped = br.Mapping(); ix.mapped != nil {
		ix.uk.Hold(ix.mapped)
		ix.docs.Hold(ix.mapped)
	}
	if meta.Empty() {
		return ix, nil, nil
	}
	if len(meta.Vocab) > 0 && len(meta.Vocab) != p.NumTerms {
		return nil, nil, fmt.Errorf("lsi: load: vocabulary has %d terms, index has %d", len(meta.Vocab), p.NumTerms)
	}
	if len(meta.DocIDs) > 0 && len(meta.DocIDs) != p.DocRows {
		return nil, nil, fmt.Errorf("lsi: load: %d doc IDs for %d documents", len(meta.DocIDs), p.DocRows)
	}
	return ix, meta, nil
}

// readGob decodes a wire v1 or v2 stream.
func readGob(r *blob.Reader) (IndexParts, *Meta, error) {
	var wire indexWire
	if err := gob.NewDecoder(r).Decode(&wire); err != nil {
		return IndexParts{}, nil, err
	}
	if wire.Version < 1 || wire.Version > gobWireVersion {
		return IndexParts{}, nil, versionError(wire.Version)
	}
	if wire.Backend != "" {
		return IndexParts{}, nil, fmt.Errorf("the stream is a saved %s index, which this build no longer opens; "+
			"rebuild it from the document text with lsiserve -backend vsm or retrieval.BuildVSM", strings.ToUpper(wire.Backend))
	}
	return IndexParts{
			K: wire.K, NumTerms: wire.NumTerms, Sigma: wire.Sigma,
			UkRows: wire.UkRows, UkData: wire.UkData,
			DocRows: wire.DocRows, DocData: Narrow(wire.DocData),
		}, &Meta{
			Vocab:           wire.Vocab,
			WeightingName:   wire.WeightingName,
			DocIDs:          wire.DocIDs,
			RemoveStopwords: wire.RemoveStopwords,
			Stemming:        wire.Stemming,
		}, nil
}

// readBlob decodes a wire v3 or v4 stream. Each array section must hold
// exactly what the dimensions say before it is read, so a file that lies
// about either fails without the array having been allocated.
func readBlob(r *blob.Reader) (p IndexParts, meta *Meta, err error) {
	v := r.Header()
	if r.Err() == nil && (v <= gobWireVersion || v > WireVersion) {
		return p, nil, versionError(int(v))
	}
	dims := r.Bytes(tagDims, dimsLen)
	if r.Err() != nil {
		return p, nil, r.Err()
	}
	k, n, m := binary.LittleEndian.Uint64(dims), binary.LittleEndian.Uint64(dims[8:]), binary.LittleEndian.Uint64(dims[16:])
	nHi, nk := bits.Mul64(n, k)
	mHi, mk := bits.Mul64(m, k)
	if nHi != 0 || mHi != 0 || max(k, n, m, nk, mk) > math.MaxInt/8 {
		return p, nil, fmt.Errorf("dimensions %d×%d and %d×%d are out of range", n, k, m, k)
	}
	p.K, p.NumTerms, p.UkRows, p.DocRows = int(k), int(n), int(n), int(m)
	p.Sigma = r.Floats(tagSigma, p.K)
	if text := r.Bytes(tagText, -1); r.Err() == nil && len(text) > 0 { // a copy of its own
		if meta, err = parseText(text); err != nil {
			return p, nil, err
		}
	}
	p.UkData = r.Floats(tagBasis, int(nk))
	if v == wideDocsVersion {
		p.DocData = Narrow(r.Floats(tagDocs, int(mk)))
	} else {
		p.DocData = r.Float32s(tagDocs, int(mk))
	}
	return p, meta, r.Err()
}
