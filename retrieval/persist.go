package retrieval

import (
	"encoding/gob"
	"fmt"
	"io"

	"repro/internal/blob"
	"repro/internal/ir"
	"repro/internal/lsi"
	"repro/internal/sparse"
	"repro/internal/vsm"
)

// Persistence: an Index saves to a single self-contained stream carrying
// the backend payload plus everything the text layer needs — vocabulary,
// weighting, pipeline flags, document IDs — so a loaded index answers
// text queries with no access to the original corpus.
//
// LSI indexes are written by internal/lsi in its wire format v4 (raw
// arrays in an internal/blob container, the text layer as one section);
// Load recognises them by their magic and hands them to lsi.LoadMeta.
// Everything else is a gob stream, read into a union of the field sets
// that were ever written that way — gob matches fields by name — which
// is the only writer left for VSM indexes (tagged Backend: "vsm", the
// term-document matrix in triplet form) and the legacy reader for LSI
// files of wire versions 1 and 2 (no Backend field).

// vsmWire is the serialized form of a VSM-backend Index.
type vsmWire struct {
	Version         int
	Backend         string
	Vocab           []string
	WeightingName   string
	DocIDs          []string
	RemoveStopwords bool
	Stemming        bool
	Rows, Cols      int
	RowIdx          []int
	ColIdx          []int
	Vals            []float64
}

// Save writes the index to w as a self-contained stream: Load needs
// nothing else to serve text queries.
func (ix *Index) Save(w io.Writer) error {
	if ix.sharded != nil {
		return fmt.Errorf("retrieval: save: sharded indexes persist to a directory; use SaveDir")
	}
	var vocabTerms []string
	if ix.vocab != nil {
		vocabTerms = ix.vocab.Terms()
	}
	if ix.backend == BackendVSM {
		rows, cols := ix.matrix.Dims()
		wire := vsmWire{
			Version:         lsi.GobWireVersion,
			Backend:         "vsm",
			Vocab:           vocabTerms,
			WeightingName:   ix.weighting.String(),
			DocIDs:          ix.docIDs,
			RemoveStopwords: ix.removeStopwords,
			Stemming:        ix.stemming,
			Rows:            rows,
			Cols:            cols,
		}
		for t := 0; t < rows; t++ {
			ix.matrix.RowIter(t, func(j int, v float64) {
				wire.RowIdx = append(wire.RowIdx, t)
				wire.ColIdx = append(wire.ColIdx, j)
				wire.Vals = append(wire.Vals, v)
			})
		}
		if err := gob.NewEncoder(w).Encode(wire); err != nil {
			return fmt.Errorf("retrieval: save: %w", err)
		}
		return nil
	}
	var meta *lsi.Meta
	if ix.vocab != nil {
		meta = &lsi.Meta{
			Vocab:           vocabTerms,
			WeightingName:   ix.weighting.String(),
			DocIDs:          ix.docIDs,
			RemoveStopwords: ix.removeStopwords,
			Stemming:        ix.stemming,
		}
	}
	return ix.seg.Ix.SaveMeta(w, meta)
}

// TextConfig supplies the text layer for indexes whose stream carries
// none (wire format v1 held only the numeric LSI payload): the
// vocabulary in term-ID order and the build-time weighting and pipeline
// flags. DocIDs are optional.
type TextConfig struct {
	Vocab           []string
	Weighting       Weighting
	RemoveStopwords bool
	Stemming        bool
	DocIDs          []string
}

// LoadOption configures Load.
type LoadOption func(*loadConfig)

type loadConfig struct {
	text *TextConfig
}

// WithTextConfig attaches a text layer to a loaded index whose stream
// does not carry one — a v1-format file, or a save of an index that had
// no vocabulary — so it can answer text queries. Streams that do store a
// text layer are self-contained and ignore the option.
func WithTextConfig(tc TextConfig) LoadOption {
	return func(c *loadConfig) { c.text = &tc }
}

// Load reads an index written by Save — or by an older build's: the gob
// streams of wire versions 1 and 2 keep loading. Streams with a text
// layer come back ready for text queries; v1 streams lack a vocabulary,
// so text queries return ErrNoVocabulary unless WithTextConfig supplies
// one (vector queries via SearchVector always work). Unknown future
// versions fail with a clear error naming the version.
func Load(r io.Reader, opts ...LoadOption) (*Index, error) {
	var cfg loadConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	br := blob.NewReader(r)
	if br.HasMagic(lsi.Magic) {
		lsiIndex, meta, err := lsi.LoadMeta(br)
		if err != nil {
			return nil, fmt.Errorf("retrieval: %w", err)
		}
		return loadLSI(lsiIndex, meta, cfg.text)
	}
	// One streaming decode into the union of every gob layout this build
	// understands; gob fills the fields whose names the stream carries
	// and leaves the rest zero. Which backend's fields are live is
	// decided by the Backend tag (absent — hence "" — in LSI streams).
	var wire struct {
		Version int
		Backend string
		// LSI payload (internal/lsi's v1/v2 field names).
		K        int
		NumTerms int
		Sigma    []float64
		UkRows   int
		UkData   []float64
		DocRows  int
		DocData  []float64
		// VSM payload (vsmWire field names).
		Rows, Cols int
		RowIdx     []int
		ColIdx     []int
		Vals       []float64
		// Shared text layer.
		Vocab           []string
		WeightingName   string
		DocIDs          []string
		RemoveStopwords bool
		Stemming        bool
	}
	if err := gob.NewDecoder(br).Decode(&wire); err != nil {
		return nil, fmt.Errorf("retrieval: load: %w", err)
	}
	if wire.Version < 1 || wire.Version > lsi.GobWireVersion {
		return nil, fmt.Errorf("retrieval: load: %w", lsi.VersionError(wire.Version))
	}
	text := &lsi.Meta{
		Vocab:           wire.Vocab,
		WeightingName:   wire.WeightingName,
		DocIDs:          wire.DocIDs,
		RemoveStopwords: wire.RemoveStopwords,
		Stemming:        wire.Stemming,
	}
	if wire.Backend == "vsm" {
		return loadVSM(vsmWire{
			Rows: wire.Rows, Cols: wire.Cols,
			RowIdx: wire.RowIdx, ColIdx: wire.ColIdx, Vals: wire.Vals,
		}, text)
	}
	lsiIndex, err := lsi.NewIndexFromParts(lsi.IndexParts{
		K: wire.K, NumTerms: wire.NumTerms, Sigma: wire.Sigma,
		UkRows: wire.UkRows, UkData: wire.UkData,
		DocRows: wire.DocRows, DocData: lsi.Narrow(wire.DocData),
	})
	if err != nil {
		return nil, fmt.Errorf("retrieval: %w", err)
	}
	return loadLSI(lsiIndex, text, cfg.text)
}

// loadLSI attaches the text layer to a loaded LSI index: the stored one
// if the stream carried any, else the caller's TextConfig.
func loadLSI(lsiIndex *lsi.Index, stored *lsi.Meta, text *TextConfig) (*Index, error) {
	ix := &Index{backend: BackendLSI, weighting: WeightingLog}
	ix.setLSI(lsiIndex)
	switch {
	case !stored.Empty():
		if len(stored.Vocab) > 0 && len(stored.Vocab) != lsiIndex.NumTerms() {
			return nil, fmt.Errorf("retrieval: load: vocabulary has %d terms, index has %d",
				len(stored.Vocab), lsiIndex.NumTerms())
		}
		if len(stored.DocIDs) > 0 && len(stored.DocIDs) != lsiIndex.NumDocs() {
			return nil, fmt.Errorf("retrieval: load: %d doc IDs for %d documents",
				len(stored.DocIDs), lsiIndex.NumDocs())
		}
		w, err := ParseWeighting(stored.WeightingName)
		if err != nil {
			return nil, fmt.Errorf("retrieval: load: %w", err)
		}
		ix.weighting = w
		ix.removeStopwords = stored.RemoveStopwords
		ix.stemming = stored.Stemming
		ix.docIDs = stored.DocIDs
		if len(stored.Vocab) > 0 {
			ix.vocab, err = ir.NewVocabularyFromTerms(stored.Vocab)
			if err != nil {
				return nil, fmt.Errorf("retrieval: load: %w", err)
			}
		}
	case text != nil:
		if len(text.Vocab) != lsiIndex.NumTerms() {
			return nil, fmt.Errorf("retrieval: load: text config has %d vocabulary terms, index has %d",
				len(text.Vocab), lsiIndex.NumTerms())
		}
		if len(text.DocIDs) > 0 && len(text.DocIDs) != lsiIndex.NumDocs() {
			return nil, fmt.Errorf("retrieval: load: text config has %d doc IDs, index has %d documents",
				len(text.DocIDs), lsiIndex.NumDocs())
		}
		vocab, err := ir.NewVocabularyFromTerms(text.Vocab)
		if err != nil {
			return nil, fmt.Errorf("retrieval: load: %w", err)
		}
		ix.vocab = vocab
		ix.weighting = text.Weighting
		ix.removeStopwords = text.RemoveStopwords
		ix.stemming = text.Stemming
		ix.docIDs = text.DocIDs
	}
	if len(ix.docIDs) == 0 {
		ix.docIDs = defaultIDs(lsiIndex.NumDocs())
	}
	return ix, nil
}

// loadVSM rebuilds a VSM index from its matrix triplets (wire carries
// only the payload fields here; the text layer arrives separately).
func loadVSM(wire vsmWire, text *lsi.Meta) (*Index, error) {
	if wire.Rows <= 0 || wire.Cols <= 0 {
		return nil, fmt.Errorf("retrieval: load: corrupt vsm matrix %dx%d", wire.Rows, wire.Cols)
	}
	if len(wire.RowIdx) != len(wire.Vals) || len(wire.ColIdx) != len(wire.Vals) {
		return nil, fmt.Errorf("retrieval: load: corrupt vsm triplets (%d/%d/%d)",
			len(wire.RowIdx), len(wire.ColIdx), len(wire.Vals))
	}
	if len(text.Vocab) > 0 && len(text.Vocab) != wire.Rows {
		return nil, fmt.Errorf("retrieval: load: vocabulary has %d terms, matrix has %d rows", len(text.Vocab), wire.Rows)
	}
	if len(text.DocIDs) > 0 && len(text.DocIDs) != wire.Cols {
		return nil, fmt.Errorf("retrieval: load: %d doc IDs for %d documents", len(text.DocIDs), wire.Cols)
	}
	coo := sparse.NewCOO(wire.Rows, wire.Cols)
	for i := range wire.Vals {
		t, d := wire.RowIdx[i], wire.ColIdx[i]
		if t < 0 || t >= wire.Rows || d < 0 || d >= wire.Cols {
			return nil, fmt.Errorf("retrieval: load: vsm entry (%d,%d) out of range for %dx%d",
				t, d, wire.Rows, wire.Cols)
		}
		coo.Add(t, d, wire.Vals[i])
	}
	a := coo.ToCSR()
	w, err := ParseWeighting(text.WeightingName)
	if err != nil {
		return nil, fmt.Errorf("retrieval: load: %w", err)
	}
	ix := &Index{
		backend:         BackendVSM,
		vsmIndex:        vsm.NewFromMatrix(a),
		matrix:          a,
		weighting:       w,
		removeStopwords: text.RemoveStopwords,
		stemming:        text.Stemming,
		docIDs:          text.DocIDs,
	}
	if len(text.Vocab) > 0 {
		ix.vocab, err = ir.NewVocabularyFromTerms(text.Vocab)
		if err != nil {
			return nil, fmt.Errorf("retrieval: load: %w", err)
		}
	}
	if len(ix.docIDs) == 0 {
		ix.docIDs = defaultIDs(wire.Cols)
	}
	return ix, nil
}

func defaultIDs(n int) []string {
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("doc-%d", i)
	}
	return ids
}
