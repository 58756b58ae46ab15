package lsi

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"os"
	"runtime"
	"slices"
	"strings"
	"unsafe"

	"repro/internal/blob"
	"repro/internal/idtable"
	"repro/internal/mat"
)

// Wire format v4, what SaveIn and SaveMeta write, is an internal/blob
// container of five sections in this order (DESIGN.md §2 has the layout):
//
//	DIMS  3 × uint64: rank k, terms n, documents m
//	SIGM  k float64: singular values
//	TEXT  text layer of Meta (see AppendText); empty when there is none
//	BASI  n×k float64: the basis Uₖ, row-major; empty in an index SaveIn
//	      wrote against the basis it shares
//	DOCS  m×k float32: document representations, row-major
//
// v3 is the same with DOCS in float64: LoadMeta still reads it, narrowing
// DOCS once into the heap. v1 and v2 were gob streams; LoadMeta refuses
// them, and internal/legacy (lsiquery -upgrade) converts them.

// Magic opens every index file SaveIn and SaveMeta write.
var Magic = [blob.MagicLen]byte{'L', 'S', 'I', 'I', 'D', 'X'}

const (
	// WireVersion is the wire-format version this package writes and the
	// newest it reads; minWireVersion is the oldest it reads.
	WireVersion     = 4
	minWireVersion  = 3
	wideDocsVersion = 3 // the newest container whose DOCS are float64

	tagDims, tagSigma, tagText, tagBasis, tagDocs = "DIMS", "SIGM", "TEXT", "BASI", "DOCS"

	dimsLen = 3 * 8
)

// ErrNotContainer reports a stream that does not open with Magic: not an
// index file, or the gob stream of wire v1 or v2 an earlier build wrote.
var ErrNotContainer = errors.New("not an index container (an index file from before wire v3 converts with lsiquery -upgrade IN OUT)")

// Meta is the optional self-containment metadata stored alongside an index
// by SaveMeta: everything the text layer needs to turn a query string into
// a term-space vector against this index, plus stable external document
// IDs. The lsi package itself does not interpret it — the public retrieval
// package does.
//
// Its JSON form is what lsiquery -upgrade -text reads (an old text.json).
type Meta struct {
	// Vocab lists the vocabulary terms in term-ID order; its length must
	// equal the index's NumTerms.
	Vocab []string `json:"vocab"`
	// WeightingName names the corpus.Weighting the term-document matrix
	// was built with (e.g. "log").
	WeightingName string `json:"weighting"`
	// DocIDs lists external document identifiers in document order; its
	// length must equal the index's NumDocs.
	DocIDs []string `json:"docIDs,omitempty"`
	// RemoveStopwords and Stemming record the text-pipeline configuration
	// used at build time, so queries are preprocessed identically.
	RemoveStopwords bool `json:"removeStopwords"`
	Stemming        bool `json:"stemming"`
}

// EncodedSize is the exact number of bytes SaveIn(w, base) writes.
func (ix *Index) EncodedSize(base *Index) int {
	basis := 8 * len(ix.uk.RawData())
	if ix.sharesOf(base) {
		basis = 0
	}
	return blob.EncodedSize(dimsLen, 8*len(ix.sigma), 0, basis, 4*len(ix.docs.RawData()))
}

// sharesOf reports whether ix is in base's latent space without being
// base: what SaveIn leaves out and LoadIn takes back.
func (ix *Index) sharesOf(base *Index) bool { return ix != base && ix.SameBasis(base) }

// SaveIn writes the index to w in a self-contained binary format (wire
// v4), without text metadata (SaveMeta bundles a vocabulary and
// weighting). The original term-document matrix is not needed to use a
// loaded index. Given a base whose basis its container holds once, an
// index that shares it (SameBasis) and is not base itself is written with
// an empty BASI section, and LoadIn reads Uₖ and σ back from base: a
// checkpoint writes every segment of a shard but its base this way.
func (ix *Index) SaveIn(w io.Writer, base *Index) error { return ix.save(w, nil, !ix.sharesOf(base)) }

// SaveMeta writes the index together with optional self-containment
// metadata (nil meta is allowed and equivalent to SaveIn with no base).
// It validates that the metadata dimensions match the index before
// writing anything.
func (ix *Index) SaveMeta(w io.Writer, meta *Meta) error {
	var text []byte
	if meta != nil {
		if len(meta.Vocab) > 0 && len(meta.Vocab) != ix.numTerms {
			return fmt.Errorf("lsi: save: vocabulary has %d terms, index has %d", len(meta.Vocab), ix.numTerms)
		}
		if len(meta.DocIDs) > 0 && len(meta.DocIDs) != ix.NumDocs() {
			return fmt.Errorf("lsi: save: %d doc IDs for %d documents", len(meta.DocIDs), ix.NumDocs())
		}
		text = AppendText(nil, meta)
	}
	return ix.save(w, text, true)
}

// save writes the container: text is the TEXT section, and BASI is empty
// unless withBasis.
func (ix *Index) save(w io.Writer, text []byte, withBasis bool) error {
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
	var basis []float64
	if withBasis {
		basis = ix.uk.RawData()
	}
	bw.Floats(tagBasis, basis)
	bw.Float32s(tagDocs, ix.docs.RawData())
	if err := bw.Close(); err != nil {
		return fmt.Errorf("lsi: save: %w", err)
	}
	return nil
}

// AppendText encodes the TEXT section, a checkpoint's too: a flags byte
// (bit 0 RemoveStopwords, bit 1 Stemming), then three lists — the
// weighting name alone, the vocabulary, the document IDs. A list is a
// uvarint count and its strings, a string a uvarint length and its bytes.
func AppendText(b []byte, m *Meta) []byte {
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

// ParseText decodes a TEXT section (b is not empty), which it takes over:
// the document IDs are views of b (their reader copies them) or, given
// ids, copied into *ids, a table sized from b, with no string per ID; the
// rest are copies, so the vocabulary does not pin b. Every count and
// length is checked against the bytes left (a string costs at least one)
// before anything is sized by it.
func ParseText(b []byte, ids *idtable.Table) (*Meta, error) {
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
		n, packed := next(), i == 2 && ids != nil
		if packed && n >= 0 {
			*ids = idtable.Make(n, len(b)-off-n) // a length takes a byte at least
		} else if n > 0 {
			lists[i] = make([]string, n)
		}
		for j := 0; j < n; j++ {
			if l := next(); l < 0 {
				n = -1
			} else if packed { // past 4 GiB the table stops short, which its reader's count catches
				*ids, _ = ids.Append(s[off : off+l])
				off += l
			} else {
				lists[i][j], off = s[off:off+l], off+l
			}
		}
		if n < 0 {
			return nil, errors.New("corrupt text section")
		}
	}
	if off != len(b) || len(lists[0]) != 1 {
		return nil, errors.New("corrupt text section")
	}
	for _, list := range lists[:2] {
		for j, str := range list {
			list[j] = strings.Clone(str)
		}
	}
	return &Meta{
		WeightingName: lists[0][0], Vocab: lists[1], DocIDs: lists[2],
		RemoveStopwords: b[0]&1 != 0, Stemming: b[0]&2 != 0,
	}, nil
}

// IndexParts is the validated raw material of a persisted Index — the
// wire payload a loader hands to NewIndexFromParts: readBlob here, and
// internal/legacy for the gob generations it converts.
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

// LoadIn reads an index previously written by SaveIn or SaveMeta (any
// supported wire version), discarding metadata if present. Given a base
// whose basis the container holds once, the index must share it: its
// BASI section is empty (SaveIn) or bit for bit base's (a checkpoint of
// an earlier build, which wrote every segment's copy), and it adopts
// base's Uₖ and σ, so the two share one latent space (SameBasis); its
// rank and terms must be base's. Any other basis is refused. Without a
// base the index loads as its own, and an empty BASI is refused.
func LoadIn(r io.Reader, base *Index) (*Index, error) {
	ix, _, err := loadMeta(r, base)
	return ix, err
}

// LoadMeta reads an index and its self-containment metadata, which is nil
// for an index saved without it (SaveIn). A stream that is not a v3
// or v4 container fails with ErrNotContainer.
//
// A v3 or v4 stream is never trusted for more memory than it has bytes:
// see blob.Reader for how the length of r is found, or done without.
func LoadMeta(r io.Reader) (*Index, *Meta, error) { return loadMeta(r, nil) }

// loadMeta is LoadMeta, and LoadIn given a base.
func loadMeta(r io.Reader, base *Index) (*Index, *Meta, error) {
	br := blob.NewReader(r)
	if !br.HasMagic(Magic) {
		return nil, nil, fmt.Errorf("lsi: load: %w", ErrNotContainer)
	}
	p, meta, err := readBlob(br)
	if err != nil {
		return nil, nil, fmt.Errorf("lsi: load: %w", err)
	}
	if base != nil {
		if len(p.UkData) > 0 && !sameBits(p.UkData, base.uk.RawData()) {
			return nil, nil, errors.New("lsi: load: a basis other than the base's it must share; " +
				"rebuild the index from its source documents")
		}
		if p.K != base.k || p.NumTerms != base.numTerms {
			return nil, nil, fmt.Errorf("lsi: load: rank %d over %d terms in the basis of rank %d over %d terms it shares",
				p.K, p.NumTerms, base.k, base.numTerms)
		}
		p.UkData, p.Sigma = base.uk.RawData(), base.sigma
	}
	ix, err := NewIndexFromParts(p)
	if err != nil {
		return nil, nil, err
	}
	if base != nil {
		ix.uk = base.uk // one matrix: SameBasis compares it
	}
	if ix.mapped = br.Mapping(); ix.mapped != nil {
		if base == nil {
			ix.uk.Hold(ix.mapped)
		}
		ix.docs.Hold(ix.mapped)
	}
	if meta == nil {
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

// readBlob decodes a wire v3 or v4 stream. Each array section must hold
// exactly what the dimensions say before it is read, so a file that lies
// about either fails without the array having been allocated.
func readBlob(r *blob.Reader) (p IndexParts, meta *Meta, err error) {
	v := r.Header()
	if r.Err() == nil && (v < minWireVersion || v > WireVersion) {
		return p, nil, fmt.Errorf("index format version %d is not supported by this build (supported: %d..%d); rebuild the index or upgrade",
			v, minWireVersion, WireVersion)
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
		if meta, err = ParseText(text, nil); err != nil {
			return p, nil, err
		}
	}
	p.UkData = r.Floats(tagBasis, -1) // empty, or n×k: NewIndexFromParts checks
	if v == wideDocsVersion {
		p.DocData = Narrow(r.Floats(tagDocs, int(mk)))
	} else {
		p.DocData = r.Float32s(tagDocs, int(mk))
	}
	return p, meta, r.Err()
}

// sameBits reports whether a and b hold the same float64 bits.
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}
