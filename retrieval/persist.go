package retrieval

import (
	"fmt"
	"io"

	"repro/internal/idtable"
	"repro/internal/lsi"
)

// Persistence: an Index saves to a single self-contained stream carrying
// the LSI payload plus everything the text layer needs — vocabulary,
// weighting, pipeline flags, document IDs — so a loaded index answers
// text queries with no access to the original corpus. internal/lsi owns
// the format: it writes wire v4 (raw arrays in an internal/blob
// container, the text layer as one section) and reads v3 and v4. Older
// files — the gob streams of wire versions 1 and 2 — and streams without
// a text layer convert offline with lsiquery -upgrade.

// Save writes the index to w as a self-contained stream: Load needs
// nothing else to serve text queries.
func (ix *Index) Save(w io.Writer) error {
	if ix.Sharded() {
		return fmt.Errorf("retrieval: save: sharded indexes persist to a directory; use SaveDir")
	}
	meta := ix.meta()
	meta.DocIDs = ix.sharded.IDs().Strings()
	return ix.sharded.Segments(nil)[0].Ix.SaveMeta(w, &meta)
}

// Load reads an index written by Save: a v4 stream, or a v3 one an
// earlier build wrote. It comes back ready for text queries. A gob stream
// (wire v1 or v2) or a stream with no text layer fails with an error that
// names lsiquery -upgrade, which converts both; unknown future versions
// fail with a clear error naming the version.
func Load(r io.Reader) (*Index, error) {
	return load(r, config{})
}

// load is Load with Open's runtime options: the tiers and the query
// cache cfg asks for are attached to the frozen index it returns.
func load(r io.Reader, cfg config) (*Index, error) {
	lsiIndex, stored, err := lsi.LoadMeta(r)
	if err != nil {
		return nil, fmt.Errorf("retrieval: %w", err)
	}
	if stored == nil || len(stored.Vocab) == 0 {
		return nil, fmt.Errorf("retrieval: load: the stream carries no text layer (vocabulary); " +
			"convert it with lsiquery -upgrade -text FILE IN OUT")
	}
	text, err := textLayerOf(stored, lsiIndex.NumTerms())
	if err != nil {
		return nil, fmt.Errorf("retrieval: load: %w", err)
	}
	ix := &Index{textLayer: text}
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
