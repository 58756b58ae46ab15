package legacy

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"repro/internal/lsi"
	"repro/retrieval/shard"
)

// A directory saved before a checkpoint became one file (retrieval/shard)
// holds a JSON manifest, a JSON ID file, a JSON text layer, and per
// segment an index file (gob or wire v4) with optional IVF and int8
// sidecar files. Only this package knows those names.

const (
	manifestName    = "manifest.json"
	manifestVersion = 2             // the newest manifest format a directory carries
	manifestFormat  = "lsi-sharded" // guards against feeding some other JSON file
	textName        = "text.json"   // the directory's text layer

	// Generation-stamped names: the generation, then shard and position.
	segFileFmt   = "seg-%d-%d-%d.idx"
	annFileFmt   = "ann-%d-%d-%d.ivf"
	quantFileFmt = "quant-%d-%d-%d.qnt"
	idsFileFmt   = "ids-%d.json"
)

// manifest is the on-disk description of such a directory.
type manifest struct {
	Version    int                 `json:"version"`
	Format     string              `json:"format"`
	Generation int                 `json:"generation"`
	Shards     int                 `json:"shards"`
	Rank       int                 `json:"rank"`
	Seed       int64               `json:"seed"`
	NumTerms   int                 `json:"numTerms"`
	NumDocs    int                 `json:"numDocs"`
	SealEvery  int                 `json:"sealEvery"`
	IDsFile    string              `json:"idsFile"`
	Segments   [][]manifestSegment `json:"segments"` // [shard][i]
}

// manifestSegment describes one segment file and its sidecar files (if
// any). The segments of shard s hold its shard-local documents 0, 1, 2, …
// in manifest order, and local l is global s + Shards·l; version 1 lists
// those globals, version 2 omits them.
type manifestSegment struct {
	File      string `json:"file"`
	Docs      int    `json:"docs"`
	Globals   []int  `json:"globals,omitempty"`
	Compacted bool   `json:"compacted"`
	ANNFile   string `json:"annFile,omitempty"`
	QuantFile string `json:"quantFile,omitempty"`
}

// parseManifest decodes and validates manifest bytes. It is total:
// arbitrary input yields either a valid *manifest or a descriptive
// error — never a panic and never an allocation sized by a number the
// input declares. Every file name must be the one the writer gave its
// field and position, so none leaves the directory, and each shard's
// segments must hold exactly its round-robin share of NumDocs.
func parseManifest(data []byte) (*manifest, error) {
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("legacy: manifest: %w", err)
	}
	switch {
	case m.Format != manifestFormat:
		return nil, fmt.Errorf("legacy: manifest: format %q, want %q", m.Format, manifestFormat)
	case m.Version < 1 || m.Version > manifestVersion:
		return nil, fmt.Errorf("legacy: manifest: version %d is not supported (supported: 1..%d)", m.Version, manifestVersion)
	case m.Shards < 1 || m.Rank < 1 || m.NumTerms < 1 || m.SealEvery < 0 || m.Generation < 0 || m.NumDocs < 0:
		return nil, fmt.Errorf("legacy: manifest: %d shards, rank %d, %d terms, sealEvery %d, generation %d, numDocs=%d out of range",
			m.Shards, m.Rank, m.NumTerms, m.SealEvery, m.Generation, m.NumDocs)
	case len(m.Segments) != m.Shards:
		return nil, fmt.Errorf("legacy: manifest: segment lists for %d shards, manifest declares %d", len(m.Segments), m.Shards)
	case m.IDsFile != fmt.Sprintf(idsFileFmt, m.Generation):
		return nil, fmt.Errorf("legacy: manifest: idsFile %q, want %q", m.IDsFile, fmt.Sprintf(idsFileFmt, m.Generation))
	}
	for s, segs := range m.Segments {
		local, share := 0, shard.ShareOf(m.NumDocs, s, m.Shards)
		for i, e := range segs {
			where := fmt.Sprintf("shard %d segment %d", s, i)
			idx := fmt.Sprintf(segFileFmt, m.Generation, s, i)
			ann, quant := fmt.Sprintf(annFileFmt, m.Generation, s, i), fmt.Sprintf(quantFileFmt, m.Generation, s, i)
			if e.File != idx || e.ANNFile != "" && e.ANNFile != ann || e.QuantFile != "" && e.QuantFile != quant {
				return nil, fmt.Errorf("legacy: manifest: %s: files %q, %q, %q, want %q and optionally %q, %q",
					where, e.File, e.ANNFile, e.QuantFile, idx, ann, quant)
			}
			// Bounded before it is summed, so a hostile docs cannot overflow.
			if e.Docs < 0 || e.Docs > share-local {
				return nil, fmt.Errorf("legacy: manifest: %s: docs=%d, but numDocs=%d leaves shard %d %d more documents",
					where, e.Docs, m.NumDocs, s, share-local)
			}
			if m.Version == 1 && len(e.Globals) != e.Docs || m.Version > 1 && e.Globals != nil {
				return nil, fmt.Errorf("legacy: manifest: %s: %d globals for docs=%d in version %d", where, len(e.Globals), e.Docs, m.Version)
			}
			for j, g := range e.Globals {
				if want := s + m.Shards*(local+j); g != want {
					return nil, fmt.Errorf("legacy: manifest: %s: global %d at row %d, round-robin placement puts %d there",
						where, g, j, want)
				}
			}
			local += e.Docs
		}
		if local != share {
			return nil, fmt.Errorf("legacy: manifest: shard %d: segments hold %d documents, numDocs=%d gives it %d",
				s, local, m.NumDocs, share)
		}
	}
	return &m, nil
}

// upgradeDir converts the directory in, saved by any build before a
// checkpoint became one file, to a checkpoint directory out: every gob
// segment rewritten as wire v4, the sidecars carried as they are (one of
// a version this build does not read is retrained at open, as it was
// before), the IDs and the text layer folded into the one file. text is
// the text layer of a directory without text.json, and must be nil for
// one with it.
func upgradeDir(in, out string, text *lsi.Meta) error {
	data, err := os.ReadFile(filepath.Join(in, manifestName))
	if errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("legacy: upgrade: %s has no %s: not a directory an earlier build saved", in, manifestName)
	}
	var man *manifest
	if err == nil {
		man, err = parseManifest(data)
	}
	if err != nil {
		return fmt.Errorf("legacy: upgrade: %w", err)
	}
	var ids []string
	if err := readJSON(in, man.IDsFile, &ids); err != nil {
		return err
	}
	if len(ids) != man.NumDocs {
		return fmt.Errorf("legacy: upgrade: %d ids for %d documents", len(ids), man.NumDocs)
	}
	var saved struct {
		Version int `json:"version"`
		lsi.Meta
	}
	err = readJSON(in, textName, &saved)
	switch gone := errors.Is(err, fs.ErrNotExist); {
	case gone && text == nil:
		return fmt.Errorf("legacy: upgrade: %s carries no text layer (%s); pass -text FILE, a JSON text layer", in, textName)
	case gone:
	case text != nil:
		return fmt.Errorf("legacy: upgrade: %s carries its own text layer (%s); drop -text", in, textName)
	case err != nil:
		return err
	case saved.Version != 1:
		return fmt.Errorf("legacy: upgrade: text layer version %d is not supported (supported: 1)", saved.Version)
	default:
		text = &saved.Meta
	}
	parts := make([][]shard.Part, len(man.Segments))
	for s, segs := range man.Segments {
		for _, e := range segs {
			p := shard.Part{Docs: e.Docs, Compacted: e.Compacted}
			data, err := os.ReadFile(filepath.Join(in, e.File))
			if err == nil {
				p.Index, err = upgradeSegment(data)
			}
			if err != nil {
				return fmt.Errorf("legacy: upgrade %s: %w", e.File, err)
			}
			if e.ANNFile != "" { // a sidecar that is gone is retrained at open if asked for
				p.ANN, _ = os.ReadFile(filepath.Join(in, e.ANNFile))
			}
			if e.QuantFile != "" {
				p.Quant, _ = os.ReadFile(filepath.Join(in, e.QuantFile))
			}
			parts[s] = append(parts[s], p)
		}
	}
	withIDs := *text
	withIDs.DocIDs = ids
	return shard.Import(out, shard.Config{Rank: man.Rank, Seed: man.Seed, SealEvery: man.SealEvery}, man.NumTerms, &withIDs, parts)
}

// readJSON decodes the JSON file name in dir into v.
func readJSON(dir, name string, v any) error {
	data, err := os.ReadFile(filepath.Join(dir, name))
	if err == nil {
		err = json.Unmarshal(data, v)
	}
	if err != nil {
		return fmt.Errorf("legacy: upgrade %s: %w", name, err)
	}
	return nil
}
