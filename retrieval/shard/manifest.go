package shard

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/faultinject"
	"repro/internal/ivf"
	"repro/internal/lsi"
	"repro/internal/quant"
	"repro/internal/segment"
)

// Persistence: a sharded index saves to a directory — one small JSON
// manifest describing the shard/segment topology, one generation-stamped
// ids-<g>.json with the external document identifiers in global order,
// and one generation-stamped file per segment in the LSI wire format
// (internal/lsi: numeric payload, no text layer; Open also reads the gob
// segments older builds wrote). The manifest is
// versioned and strictly validated on load: a corrupt or truncated
// manifest fails with a descriptive error, never a panic (fuzzed in
// manifest_fuzz_test.go).
//
// Pending raw documents are not persisted: segments reload as
// non-compactable, serving exactly the scores they served when saved.
// Call Compact before SaveDir to persist a fully compacted index.

const (
	// ManifestName is the manifest's file name inside an index directory.
	ManifestName = "manifest.json"
	// ManifestVersion is the newest manifest format this build reads and
	// the version it writes.
	ManifestVersion = 1
	// manifestFormat guards against feeding some other JSON file to Open.
	manifestFormat = "lsi-sharded"
)

// Manifest is the on-disk description of a sharded index.
type Manifest struct {
	Version int    `json:"version"`
	Format  string `json:"format"`
	// Generation increments on every SaveDir into the same directory;
	// data files carry it in their names, so a re-save never overwrites
	// a file the previous manifest references and a crash mid-save
	// leaves the old manifest pointing at intact old files.
	Generation int                 `json:"generation"`
	Shards     int                 `json:"shards"`
	Rank       int                 `json:"rank"`
	Seed       int64               `json:"seed"`
	NumTerms   int                 `json:"numTerms"`
	NumDocs    int                 `json:"numDocs"`
	SealEvery  int                 `json:"sealEvery"`
	IDsFile    string              `json:"idsFile"`
	Segments   [][]ManifestSegment `json:"segments"` // [shard][i]
}

// ManifestSegment describes one segment file.
type ManifestSegment struct {
	File      string `json:"file"`
	Docs      int    `json:"docs"`
	Globals   []int  `json:"globals"`
	Compacted bool   `json:"compacted"`
	// Base marks the segment whose latent index is the shard's fold-in
	// basis for future ingest.
	Base bool `json:"base,omitempty"`
	// ANNFile names the segment's IVF quantizer sidecar (internal/ivf
	// wire format), empty when the segment has none. Optional by
	// construction: a version-1 manifest without it still opens, the
	// segment just serves exhaustively (or re-trains, if the opening
	// config asks for the ANN tier).
	ANNFile string `json:"annFile,omitempty"`
	// QuantFile names the segment's int8 shadow sidecar (internal/quant
	// wire format), empty when the segment has none. Optional exactly
	// like ANNFile: absent, the segment scores in float (or rebuilds the
	// shadow, if the opening config asks for the quantized tier).
	QuantFile string `json:"quantFile,omitempty"`
}

// ParseManifest decodes and validates manifest bytes. It is total:
// arbitrary input yields either a valid *Manifest or a descriptive
// error — never a panic and never unbounded allocation (every size it
// trusts is bounded by the input length).
func ParseManifest(data []byte) (*Manifest, error) {
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("shard: manifest: %w", err)
	}
	if m.Format != manifestFormat {
		return nil, fmt.Errorf("shard: manifest: format %q, want %q", m.Format, manifestFormat)
	}
	if m.Version < 1 || m.Version > ManifestVersion {
		return nil, fmt.Errorf("shard: manifest: version %d is not supported by this build (supported: 1..%d); rebuild the index or upgrade",
			m.Version, ManifestVersion)
	}
	if m.Shards < 1 {
		return nil, fmt.Errorf("shard: manifest: %d shards, want >= 1", m.Shards)
	}
	if m.Rank < 1 {
		return nil, fmt.Errorf("shard: manifest: rank %d, want >= 1", m.Rank)
	}
	if m.NumTerms < 1 {
		return nil, fmt.Errorf("shard: manifest: %d terms, want >= 1", m.NumTerms)
	}
	if m.SealEvery < 0 {
		return nil, fmt.Errorf("shard: manifest: sealEvery %d, want >= 0", m.SealEvery)
	}
	if m.Generation < 0 {
		return nil, fmt.Errorf("shard: manifest: generation %d, want >= 0", m.Generation)
	}
	if len(m.Segments) != m.Shards {
		return nil, fmt.Errorf("shard: manifest: segment lists for %d shards, manifest declares %d", len(m.Segments), m.Shards)
	}
	if err := validFileName(m.IDsFile); err != nil {
		return nil, fmt.Errorf("shard: manifest: ids file: %w", err)
	}
	// Every document must live in exactly one segment: the per-segment
	// global lists partition [0, NumDocs). Sizes are checked before any
	// allocation keyed on them, so a corrupt NumDocs cannot drive a huge
	// allocation — it must equal the total globals actually present.
	total := 0
	for s, segs := range m.Segments {
		for i, e := range segs {
			if err := validFileName(e.File); err != nil {
				return nil, fmt.Errorf("shard: manifest: shard %d segment %d: %w", s, i, err)
			}
			if e.ANNFile != "" {
				if err := validFileName(e.ANNFile); err != nil {
					return nil, fmt.Errorf("shard: manifest: shard %d segment %d: ann file: %w", s, i, err)
				}
			}
			if e.QuantFile != "" {
				if err := validFileName(e.QuantFile); err != nil {
					return nil, fmt.Errorf("shard: manifest: shard %d segment %d: quant file: %w", s, i, err)
				}
			}
			if e.Docs != len(e.Globals) {
				return nil, fmt.Errorf("shard: manifest: shard %d segment %d: docs=%d but %d globals",
					s, i, e.Docs, len(e.Globals))
			}
			total += e.Docs
		}
	}
	if m.NumDocs != total {
		return nil, fmt.Errorf("shard: manifest: numDocs=%d but segments hold %d documents", m.NumDocs, total)
	}
	seen := make([]bool, m.NumDocs)
	for s, segs := range m.Segments {
		for i, e := range segs {
			prev := -1
			for _, g := range e.Globals {
				if g < 0 || g >= m.NumDocs {
					return nil, fmt.Errorf("shard: manifest: shard %d segment %d: global %d out of [0,%d)",
						s, i, g, m.NumDocs)
				}
				if seen[g] {
					return nil, fmt.Errorf("shard: manifest: global %d appears in more than one segment", g)
				}
				seen[g] = true
				if g <= prev {
					return nil, fmt.Errorf("shard: manifest: shard %d segment %d: globals not strictly ascending at %d",
						s, i, g)
				}
				prev = g
			}
		}
	}
	for s, segs := range m.Segments {
		bases := 0
		for _, e := range segs {
			if e.Base {
				bases++
			}
		}
		if bases > 1 {
			return nil, fmt.Errorf("shard: manifest: shard %d marks %d base segments, want at most 1", s, bases)
		}
	}
	return &m, nil
}

// validFileName accepts only bare file names — no separators, no
// traversal — so a hostile manifest cannot read or write outside its
// index directory.
func validFileName(name string) error {
	if name == "" {
		return fmt.Errorf("empty file name")
	}
	if name != filepath.Base(name) || name == "." || name == ".." || strings.ContainsAny(name, `/\`) {
		return fmt.Errorf("file name %q is not a bare name", name)
	}
	return nil
}

// nextGeneration scans dir for generation-stamped data files and returns
// one past the highest generation found, so a new save never reuses a
// file name an earlier manifest might reference.
func nextGeneration(dir string, fsys faultinject.FS) (int, error) {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	gen := 0
	for _, e := range entries {
		var g, a, b int
		if n, _ := fmt.Sscanf(e.Name(), "seg-%d-%d-%d.idx", &g, &a, &b); n == 3 && g >= gen {
			gen = g + 1
		}
		if n, _ := fmt.Sscanf(e.Name(), "ann-%d-%d-%d.ivf", &g, &a, &b); n == 3 && g >= gen {
			gen = g + 1
		}
		if n, _ := fmt.Sscanf(e.Name(), "quant-%d-%d-%d.qnt", &g, &a, &b); n == 3 && g >= gen {
			gen = g + 1
		}
		if n, _ := fmt.Sscanf(e.Name(), "ids-%d.json", &g); n == 1 && g >= gen {
			gen = g + 1
		}
	}
	return gen, nil
}

// encodeSegment is the segment's index file, in a buffer sized once.
func encodeSegment(ix *lsi.Index) ([]byte, error) {
	var buf bytes.Buffer
	buf.Grow(ix.EncodedSize())
	err := ix.Save(&buf)
	return buf.Bytes(), err
}

// writeFileAtomic writes data to dir/name via a temp file + rename, so
// the name only ever holds a complete file.
func writeFileAtomic(dir, name string, data []byte, fsys faultinject.FS) error {
	tmp := filepath.Join(dir, name+".tmp")
	if err := fsys.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return fsys.Rename(tmp, filepath.Join(dir, name))
}

// SaveDir writes the index to dir (created if needed): the manifest,
// the external IDs, and one wire-format file per segment. The snapshot
// is taken atomically with respect to ingest. The save is crash-safe,
// including re-saves into a live index directory: data files carry a
// fresh generation number (never overwriting anything the current
// manifest references), the manifest itself is switched by an atomic
// rename, and only after that switch are the previous generation's
// files deleted. A crash at any point leaves the directory opening as
// either the complete old index or the complete new one.
func (x *Index) SaveDir(dir string) error { return x.SaveDirFS(dir, faultinject.OS{}) }

// SaveDirFS is SaveDir with an explicit file system — the
// fault-injection seam. Every write the checkpoint performs goes
// through fsys, so tests interpose a faultinject.FaultyFS and verify
// that a save interrupted by torn writes or disk-full leaves the
// directory opening as the complete previous index.
func (x *Index) SaveDirFS(dir string, fsys faultinject.FS) error {
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("shard: save: %w", err)
	}
	gen, err := nextGeneration(dir, fsys)
	if err != nil {
		return fmt.Errorf("shard: save: %w", err)
	}
	// Snapshot under ingestMu so ids and segment states agree; writing
	// happens after release.
	x.ingestMu.Lock()
	ids := x.ids.Load().ids
	states := make([]*shardState, len(x.shards))
	bases := make([]*lsi.Index, len(x.shards))
	for s, sh := range x.shards {
		states[s] = sh.state.Load()
		bases[s] = sh.base
	}
	x.ingestMu.Unlock()

	man := &Manifest{
		Version:    ManifestVersion,
		Format:     manifestFormat,
		Generation: gen,
		Shards:     x.cfg.Shards,
		Rank:       x.cfg.Rank,
		Seed:       x.cfg.Seed,
		NumTerms:   x.numTerms,
		NumDocs:    len(ids),
		SealEvery:  x.cfg.SealEvery,
		IDsFile:    fmt.Sprintf("ids-%d.json", gen),
		Segments:   make([][]ManifestSegment, x.cfg.Shards),
	}
	keep := map[string]bool{man.IDsFile: true}
	for s, st := range states {
		var segs []*segment.Segment
		segs = st.segments(segs)
		man.Segments[s] = []ManifestSegment{}
		for i, seg := range segs {
			name := fmt.Sprintf("seg-%d-%d-%d.idx", gen, s, i)
			data, err := encodeSegment(seg.Ix)
			if err != nil {
				return fmt.Errorf("shard: save segment %s: %w", name, err)
			}
			if err := writeFileAtomic(dir, name, data, fsys); err != nil {
				return fmt.Errorf("shard: save segment %s: %w", name, err)
			}
			keep[name] = true
			annName := ""
			if seg.Ann != nil {
				annName = fmt.Sprintf("ann-%d-%d-%d.ivf", gen, s, i)
				if err := writeFileAtomic(dir, annName, seg.Ann.Encode(), fsys); err != nil {
					return fmt.Errorf("shard: save quantizer %s: %w", annName, err)
				}
				keep[annName] = true
			}
			quantName := ""
			if seg.Quant != nil {
				quantName = fmt.Sprintf("quant-%d-%d-%d.qnt", gen, s, i)
				if err := writeFileAtomic(dir, quantName, seg.Quant.Encode(), fsys); err != nil {
					return fmt.Errorf("shard: save quantized matrix %s: %w", quantName, err)
				}
				keep[quantName] = true
			}
			man.Segments[s] = append(man.Segments[s], ManifestSegment{
				File:      name,
				Docs:      seg.Len(),
				Globals:   seg.Global,
				Compacted: seg.Compacted,
				Base:      bases[s] != nil && seg.Ix == bases[s],
				ANNFile:   annName,
				QuantFile: quantName,
			})
		}
	}

	idsData, err := json.Marshal(ids)
	if err != nil {
		return fmt.Errorf("shard: save ids: %w", err)
	}
	if err := writeFileAtomic(dir, man.IDsFile, idsData, fsys); err != nil {
		return fmt.Errorf("shard: save ids: %w", err)
	}
	manData, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return fmt.Errorf("shard: save manifest: %w", err)
	}
	if err := writeFileAtomic(dir, ManifestName, manData, fsys); err != nil {
		return fmt.Errorf("shard: save manifest: %w", err)
	}
	// From here the new manifest is the directory's truth: fsync the
	// directory so the rename survives power loss.
	if err := fsys.SyncDir(dir); err != nil {
		return fmt.Errorf("shard: save manifest: %w", err)
	}
	x.generation.Store(uint64(gen))

	// The new manifest is live; retire the previous generation's data
	// files (best-effort — see retireStaleGenerations).
	retireStaleGenerations(dir, keep)
	return nil
}

// Open loads an index saved by SaveDir. The manifest supplies the
// structural configuration (shards, rank, seed, vocabulary dimension);
// cfg supplies the runtime knobs — SealEvery (0 keeps the saved value),
// AutoCompact, Engine, CompactL. Segments reload exactly as saved and
// serve identical scores; retained raw documents are not persisted, so
// reloaded segments are not re-compactable.
func Open(dir string, cfg Config) (*Index, error) {
	data, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		return nil, fmt.Errorf("shard: open: %w", err)
	}
	man, err := ParseManifest(data)
	if err != nil {
		return nil, fmt.Errorf("shard: open: %w", err)
	}

	cfg.Shards = man.Shards
	cfg.Rank = man.Rank
	cfg.Seed = man.Seed
	if cfg.SealEvery <= 0 {
		cfg.SealEvery = man.SealEvery
	}
	cfg = cfg.withDefaults()

	idsData, err := os.ReadFile(filepath.Join(dir, man.IDsFile))
	if err != nil {
		return nil, fmt.Errorf("shard: open: %w", err)
	}
	var ids []string
	if err := json.Unmarshal(idsData, &ids); err != nil {
		return nil, fmt.Errorf("shard: open %s: %w", man.IDsFile, err)
	}
	if len(ids) != man.NumDocs {
		return nil, fmt.Errorf("shard: open: %d ids for %d documents", len(ids), man.NumDocs)
	}

	x := newIndex(man.NumTerms, cfg)
	x.generation.Store(uint64(man.Generation))
	x.ids.Store(&idTable{ids: ids})
	for s, entries := range man.Segments {
		st := &shardState{}
		for _, e := range entries {
			f, err := os.Open(filepath.Join(dir, e.File))
			if err != nil {
				return nil, fmt.Errorf("shard: open: %w", err)
			}
			ix, err := lsi.Load(f)
			f.Close()
			if err != nil {
				return nil, fmt.Errorf("shard: open segment %s: %w", e.File, err)
			}
			if ix.NumTerms() != man.NumTerms {
				return nil, fmt.Errorf("shard: open segment %s: %d terms, manifest says %d",
					e.File, ix.NumTerms(), man.NumTerms)
			}
			if ix.NumDocs() != e.Docs {
				return nil, fmt.Errorf("shard: open segment %s: %d documents, manifest says %d",
					e.File, ix.NumDocs(), e.Docs)
			}
			seg, err := segment.New(ix, e.Globals, nil, e.Compacted)
			if err != nil {
				return nil, fmt.Errorf("shard: open segment %s: %w", e.File, err)
			}
			if e.ANNFile != "" {
				annData, err := os.ReadFile(filepath.Join(dir, e.ANNFile))
				if err != nil {
					return nil, fmt.Errorf("shard: open: %w", err)
				}
				ann, err := ivf.Decode(annData)
				if err != nil {
					return nil, fmt.Errorf("shard: open quantizer %s: %w", e.ANNFile, err)
				}
				if seg, err = seg.WithAnn(ann); err != nil {
					return nil, fmt.Errorf("shard: open quantizer %s: %w", e.ANNFile, err)
				}
			} else if seg, err = x.trainAnn(seg, s); err != nil {
				// An older save without sidecars opens into an ANN-enabled
				// config by training in place, so the tier is available
				// without a rebuild.
				return nil, fmt.Errorf("shard: open segment %s: %w", e.File, err)
			}
			if e.QuantFile != "" {
				quantData, err := os.ReadFile(filepath.Join(dir, e.QuantFile))
				if err != nil {
					return nil, fmt.Errorf("shard: open: %w", err)
				}
				qm, err := quant.Decode(quantData)
				if err != nil {
					return nil, fmt.Errorf("shard: open quantized matrix %s: %w", e.QuantFile, err)
				}
				if seg, err = seg.WithQuant(qm); err != nil {
					return nil, fmt.Errorf("shard: open quantized matrix %s: %w", e.QuantFile, err)
				}
			} else if seg, err = x.trainQuant(seg); err != nil {
				// Same fallback as the ANN sidecar: an older save opens into
				// a quantization-enabled config by rebuilding the shadow in
				// place (deterministic, so it matches what a save would hold).
				return nil, fmt.Errorf("shard: open segment %s: %w", e.File, err)
			}
			st.stable = append(st.stable, seg)
			if e.Base {
				x.shards[s].base = ix
			}
		}
		// A shard that has segments but no recorded basis (a manifest
		// from a degenerate save) falls back to its first segment's
		// index so ingest keeps working.
		if x.shards[s].base == nil && len(st.stable) > 0 {
			x.shards[s].base = st.stable[0].Ix
		}
		x.shards[s].state.Store(st)
	}
	x.startCompactor()
	return x, nil
}
