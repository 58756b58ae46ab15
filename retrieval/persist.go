package retrieval

import (
	"fmt"
	"io"

	"repro/internal/idtable"
	"repro/internal/ir"
	"repro/internal/lsi"
)

// Persistence: an Index saves to a single self-contained stream carrying
// the LSI payload plus everything the text layer needs — vocabulary,
// weighting, pipeline flags, document IDs — so a loaded index answers
// text queries with no access to the original corpus. internal/lsi owns
// the format: it writes wire v4 (raw arrays in an internal/blob
// container, the text layer as one section) and reads every generation,
// the gob streams of wire versions 1 and 2 included.

// Save writes the index to w as a self-contained stream: Load needs
// nothing else to serve text queries.
func (ix *Index) Save(w io.Writer) error {
	if ix.Sharded() {
		return fmt.Errorf("retrieval: save: sharded indexes persist to a directory; use SaveDir")
	}
	var meta *lsi.Meta
	if ix.vocab != nil {
		meta = &lsi.Meta{
			Vocab:           ix.vocab.Terms(),
			WeightingName:   ix.weighting.String(),
			DocIDs:          ix.sharded.IDs().Strings(),
			RemoveStopwords: ix.removeStopwords,
			Stemming:        ix.stemming,
		}
	}
	return ix.sharded.Segments(nil)[0].Ix.SaveMeta(w, meta)
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
// one (vector queries always work). Unknown future
// versions fail with a clear error naming the version, and a VSM index
// an earlier build saved fails with one that says to rebuild it from
// its text with BuildVSM.
func Load(r io.Reader, opts ...LoadOption) (*Index, error) {
	var lc loadConfig
	for _, opt := range opts {
		opt(&lc)
	}
	return load(r, lc.text, config{})
}

// load is Load with Open's runtime options: the tiers and the query
// cache cfg asks for are attached to the frozen index it returns.
func load(r io.Reader, text *TextConfig, cfg config) (*Index, error) {
	lsiIndex, stored, err := lsi.LoadMeta(r)
	if err != nil {
		return nil, fmt.Errorf("retrieval: %w", err)
	}
	ix := &Index{textLayer: textLayer{weighting: WeightingLog}}
	switch {
	case stored != nil: // LoadMeta has checked its lengths against the index
		w, err := ParseWeighting(stored.WeightingName)
		if err != nil {
			return nil, fmt.Errorf("retrieval: load: %w", err)
		}
		ix.weighting = w
		ix.removeStopwords = stored.RemoveStopwords
		ix.stemming = stored.Stemming
		ix.docIDs = idtable.Of(stored.DocIDs)
		if len(stored.Vocab) > 0 {
			vocab, err := ir.NewVocabularyFromTerms(stored.Vocab)
			if err != nil {
				return nil, fmt.Errorf("retrieval: load: %w", err)
			}
			ix.setVocab(vocab)
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
		ix.setVocab(vocab)
		ix.weighting = text.Weighting
		ix.removeStopwords = text.RemoveStopwords
		ix.stemming = text.Stemming
		ix.docIDs = idtable.Of(text.DocIDs)
	}
	if ix.docIDs.Len() == 0 {
		ix.docIDs = idtable.Of(defaultIDs(lsiIndex.NumDocs()))
	}
	if err := ix.freeze(lsiIndex, cfg); err != nil {
		return nil, err
	}
	ix.initCache(cfg.cacheBytes)
	return ix, nil
}

func defaultIDs(n int) []string {
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("doc-%d", i)
	}
	return ids
}
