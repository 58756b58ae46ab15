package shard

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/faultinject"
	"repro/internal/idtable"
	"repro/internal/ivf"
	"repro/internal/lsi"
	"repro/internal/quant"
	"repro/internal/segment"
)

// Persistence: a sharded index saves to a directory — one small JSON
// manifest describing the shard/segment topology, one generation-stamped
// ids-<g>.json with the external document identifiers in global order,
// and per segment one generation-stamped file in the LSI wire format
// (internal/lsi: numeric payload, no text layer; a directory with the gob
// segments older builds wrote converts with lsiquery -upgrade) plus a
// sidecar file for each tier it carries. DESIGN.md "Checkpoint layout"
// has the whole picture: one writer (writeCheckpoint, whose steps Rewrite
// reuses for an offline converter), one file vocabulary (FileGeneration),
// one list of what a manifest references (Files). The manifest is versioned and strictly validated on load: a
// corrupt or truncated manifest fails with a descriptive error, never a
// panic (fuzzed in manifest_fuzz_test.go).
//
// Pending raw documents are not persisted: segments reload as
// non-compactable, serving exactly the scores they served when saved.
// Call Compact before SaveDir to persist a fully compacted index.

const (
	// ManifestName is the manifest's file name inside an index directory.
	ManifestName = "manifest.json"
	// ManifestVersion is the newest manifest format this build reads and
	// the version it writes.
	ManifestVersion = 2
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

// ManifestSegment describes one segment file. The segments of shard s
// hold its shard-local documents 0, 1, 2, … in manifest order, and local
// l is global s + Shards·l.
type ManifestSegment struct {
	File string `json:"file"`
	Docs int    `json:"docs"`
	// Globals is version 1's list of the segment's global numbers, which
	// must equal the numbering above; version 2 omits it.
	Globals   []int `json:"globals,omitempty"`
	Compacted bool  `json:"compacted"`
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
// error — never a panic and never an allocation sized by a number the
// input declares. Every file name must be the one the checkpoint writer
// gives its field and position, and each shard's segments must hold
// exactly its round-robin share of NumDocs.
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
	if m.NumDocs < 0 {
		return nil, fmt.Errorf("shard: manifest: numDocs=%d, want >= 0", m.NumDocs)
	}
	if len(m.Segments) != m.Shards {
		return nil, fmt.Errorf("shard: manifest: segment lists for %d shards, manifest declares %d", len(m.Segments), m.Shards)
	}
	// Only the writer's positional names: they cannot leave the directory,
	// and no two fields name one file, nor the manifest a replica writes last.
	if want := fmt.Sprintf(idsFileFmt, m.Generation); m.IDsFile != want {
		return nil, fmt.Errorf("shard: manifest: idsFile %q, want %q", m.IDsFile, want)
	}
	for s, segs := range m.Segments {
		local, share, bases := 0, ShareOf(m.NumDocs, s, m.Shards), 0
		for i, e := range segs {
			where := fmt.Sprintf("shard %d segment %d", s, i)
			idx := fmt.Sprintf(segFileFmt, m.Generation, s, i)
			ann, quant := fmt.Sprintf(annFileFmt, m.Generation, s, i), fmt.Sprintf(quantFileFmt, m.Generation, s, i)
			if e.File != idx || e.ANNFile != "" && e.ANNFile != ann || e.QuantFile != "" && e.QuantFile != quant {
				return nil, fmt.Errorf("shard: manifest: %s: files %q, %q, %q, want %q and optionally %q, %q",
					where, e.File, e.ANNFile, e.QuantFile, idx, ann, quant)
			}
			// Bounded before it is summed, so a hostile docs cannot overflow.
			if e.Docs < 0 || e.Docs > share-local {
				return nil, fmt.Errorf("shard: manifest: %s: docs=%d, but numDocs=%d leaves shard %d %d more documents",
					where, e.Docs, m.NumDocs, s, share-local)
			}
			if m.Version == 1 && len(e.Globals) != e.Docs || m.Version > 1 && e.Globals != nil {
				return nil, fmt.Errorf("shard: manifest: %s: %d globals for docs=%d in version %d", where, len(e.Globals), e.Docs, m.Version)
			}
			for j, g := range e.Globals {
				if want := s + m.Shards*(local+j); g != want {
					return nil, fmt.Errorf("shard: manifest: %s: global %d at row %d, round-robin placement puts %d there",
						where, g, j, want)
				}
			}
			local += e.Docs
			if e.Base {
				bases++
			}
		}
		if local != share {
			return nil, fmt.Errorf("shard: manifest: shard %d: segments hold %d documents, numDocs=%d gives it %d",
				s, local, m.NumDocs, share)
		}
		if bases > 1 {
			return nil, fmt.Errorf("shard: manifest: shard %d marks %d base segments, want at most 1", s, bases)
		}
	}
	return &m, nil
}

// ShareOf is shard s's round-robin share of numDocs documents: the
// globals s, s+shards, s+2·shards, … below numDocs.
func ShareOf(numDocs, s, shards int) int {
	return numDocs/shards + min(1, max(0, numDocs%shards-s))
}

// The generation-stamped file names of a checkpoint. The first number of
// each is the generation; segment files and their sidecars follow it with
// the shard and the segment's position in it.
const (
	segFileFmt   = "seg-%d-%d-%d.idx"
	annFileFmt   = "ann-%d-%d-%d.ivf"
	quantFileFmt = "quant-%d-%d-%d.qnt"
	idsFileFmt   = "ids-%d.json"
)

// FileGeneration recognises the name of a generation-stamped checkpoint
// file — a segment, one of its sidecars, or an IDs file — and returns the
// generation it belongs to. It is the checkpoint's whole file vocabulary
// apart from the two fixed names (ManifestName and the owning layer's
// text file), and it is strict: a name matches only if it is exactly what
// the checkpoint writer would produce, so it doubles as the allow-list of
// what a replica may fetch.
func FileGeneration(name string) (gen int, ok bool) {
	var a, b int
	for _, f := range [...]string{segFileFmt, annFileFmt, quantFileFmt} {
		if n, _ := fmt.Sscanf(name, f, &gen, &a, &b); n == 3 && gen >= 0 && a >= 0 && b >= 0 && name == fmt.Sprintf(f, gen, a, b) {
			return gen, true
		}
	}
	if n, _ := fmt.Sscanf(name, idsFileFmt, &gen); n == 1 && gen >= 0 && name == fmt.Sprintf(idsFileFmt, gen) {
		return gen, true
	}
	return 0, false
}

// Files lists every file the manifest references, in the order a reader
// needs them: the IDs file, then each segment's index file and sidecars.
// It is what ParseManifest validates and what a replica pulls (besides
// the manifest itself and the owning layer's text file).
func (m *Manifest) Files() []string {
	files := []string{m.IDsFile}
	for _, segs := range m.Segments {
		for _, e := range segs {
			files = append(files, e.File)
			if e.ANNFile != "" {
				files = append(files, e.ANNFile)
			}
			if e.QuantFile != "" {
				files = append(files, e.QuantFile)
			}
		}
	}
	return files
}

// encodeSegment is the segment's index file, in a buffer sized once.
func encodeSegment(ix *lsi.Index) ([]byte, error) {
	var buf bytes.Buffer
	buf.Grow(ix.EncodedSize())
	err := ix.Save(&buf)
	return buf.Bytes(), err
}

// checkpointView is what a checkpoint records: a consistent snapshot of
// an index (SaveDir) or of one of its shards as a standalone index
// (SaveShardDir). len(shards) is the shard count the manifest declares.
type checkpointView struct {
	seed   int64
	ids    []string // external IDs in the view's own document numbering
	shards []shardView
}

// shardView is one shard of a checkpointView: its segments, in the order
// that numbers their documents, and its fold-in basis.
type shardView struct {
	segs []*segment.Segment
	base *lsi.Index
}

// viewShard snapshots shard s for a checkpoint. Callers hold ingestMu so
// the ID table and the segment states of one view agree.
func (x *Index) viewShard(s int) shardView {
	return shardView{segs: x.shards[s].state.Load().segments(nil), base: x.shards[s].base}
}

// writeCheckpoint writes v to dir (created if needed) and returns the
// generation it wrote. It is the only writer of a checkpoint from an
// index (Rewrite copies one with the same steps), and it is crash-safe,
// re-saves into a live directory included: data files carry a fresh
// generation number (never overwriting anything the current manifest
// references), each file is fsynced before it is renamed into
// place, the manifest is switched last by an atomic rename and made
// durable by a directory fsync, and only after that are the previous
// generation's files deleted. A crash at any point leaves the directory
// opening as either the complete old checkpoint or the complete new one.
// Every write goes through fsys.
func (x *Index) writeCheckpoint(dir string, v checkpointView, fsys faultinject.FS) (int, error) {
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return 0, fmt.Errorf("shard: save: %w", err)
	}
	// The generation-stamped files already in dir — temp files of a
	// crashed checkpoint count as the file they would have become — and one
	// past their highest generation, so no file name an earlier manifest
	// might reference is reused.
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return 0, fmt.Errorf("shard: save: %w", err)
	}
	var gen int
	var before []string
	for _, e := range entries {
		if g, ok := FileGeneration(strings.TrimSuffix(e.Name(), faultinject.TempSuffix)); ok {
			gen, before = max(gen, g+1), append(before, e.Name())
		}
	}
	man := &Manifest{
		Version:    ManifestVersion,
		Format:     manifestFormat,
		Generation: gen,
		Shards:     len(v.shards),
		Rank:       x.cfg.Rank,
		Seed:       v.seed,
		NumTerms:   x.numTerms,
		NumDocs:    len(v.ids),
		SealEvery:  x.cfg.SealEvery,
		IDsFile:    fmt.Sprintf(idsFileFmt, gen),
		Segments:   make([][]ManifestSegment, len(v.shards)),
	}
	for s, sh := range v.shards {
		man.Segments[s] = []ManifestSegment{}
		for i, seg := range sh.segs {
			e := ManifestSegment{
				File:      fmt.Sprintf(segFileFmt, gen, s, i),
				Docs:      seg.Len(),
				Compacted: seg.Compacted,
				Base:      sh.base != nil && seg.Ix == sh.base,
			}
			data, err := encodeSegment(seg.Ix)
			if err != nil {
				return 0, fmt.Errorf("shard: save %s: %w", e.File, err)
			}
			if err := writeFile(fsys, dir, e.File, data); err != nil {
				return 0, err
			}
			// The sidecars index segment-local rows: the same bytes in an
			// export as in a SaveDir.
			if seg.Ann != nil {
				e.ANNFile = fmt.Sprintf(annFileFmt, gen, s, i)
				if err := writeFile(fsys, dir, e.ANNFile, seg.Ann.Encode()); err != nil {
					return 0, err
				}
			}
			if seg.Quant != nil {
				e.QuantFile = fmt.Sprintf(quantFileFmt, gen, s, i)
				if err := writeFile(fsys, dir, e.QuantFile, seg.Quant.Encode()); err != nil {
					return 0, err
				}
			}
			man.Segments[s] = append(man.Segments[s], e)
		}
	}
	idsData, err := json.Marshal(v.ids)
	if err != nil {
		return 0, fmt.Errorf("shard: save %s: %w", man.IDsFile, err)
	}
	if err := writeFile(fsys, dir, man.IDsFile, idsData); err != nil {
		return 0, err
	}
	if err := commit(fsys, dir, man); err != nil {
		return 0, err
	}
	// Retire every older generation (nothing this checkpoint wrote is
	// among them: its names are all newer). Best-effort: leftovers are
	// ignored by Open and removed by the next checkpoint.
	for _, name := range before {
		fsys.Remove(filepath.Join(dir, name))
	}
	return gen, nil
}

// writeFile puts one checkpoint file into dir. It is synced before it is
// renamed into place, so a name only ever holds a complete file, power
// loss included.
func writeFile(fsys faultinject.FS, dir, name string, data []byte) error {
	if err := faultinject.ReplaceFile(fsys, filepath.Join(dir, name), data); err != nil {
		return fmt.Errorf("shard: save %s: %w", name, err)
	}
	return nil
}

// commit switches dir to man, whose files are all in place: the manifest
// is written last, and from its rename on it is the directory's truth, so
// the directory is fsynced to make the rename survive power loss.
func commit(fsys faultinject.FS, dir string, man *Manifest) error {
	data, err := json.MarshalIndent(man, "", "  ")
	if err == nil {
		err = faultinject.ReplaceFile(fsys, filepath.Join(dir, ManifestName), data)
	}
	if err == nil {
		err = fsys.SyncDir(dir)
	}
	if err != nil {
		return fmt.Errorf("shard: save %s: %w", ManifestName, err)
	}
	return nil
}

// Rewrite copies the checkpoint directory in, saved by any build, to a new
// directory out at the current manifest version, written as
// writeCheckpoint writes: first the files extra names (layers above the
// shard checkpoint, such as a text layer), then every file the manifest
// names, each segment file passed through segment, and the manifest last.
func Rewrite(in, out string, segment func([]byte) ([]byte, error), extra ...string) error {
	var man *Manifest
	data, err := os.ReadFile(filepath.Join(in, ManifestName))
	if err == nil {
		man, err = ParseManifest(data)
	}
	if err == nil {
		err = os.Mkdir(out, 0o755)
	}
	if err != nil {
		return fmt.Errorf("shard: rewrite: %w", err)
	}
	segs := map[string]bool{}
	for s := range man.Segments {
		for i := range man.Segments[s] {
			man.Segments[s][i].Globals = nil // version 1's list, which ParseManifest checked is the rule
			segs[man.Segments[s][i].File] = true
		}
	}
	fsys := faultinject.OS{}
	for _, name := range append(extra, man.Files()...) {
		data, err := os.ReadFile(filepath.Join(in, name))
		if err == nil && segs[name] {
			data, err = segment(data)
		}
		if err != nil {
			return fmt.Errorf("shard: rewrite %s: %w", name, err)
		}
		if err := writeFile(fsys, out, name, data); err != nil {
			return err
		}
	}
	man.Version = ManifestVersion
	return commit(fsys, out, man)
}

// SaveDir writes the index to dir (created if needed): the manifest,
// the external IDs, and per segment one wire-format file plus its
// sidecars (see writeCheckpoint for the crash-safety contract). The
// snapshot is taken atomically with respect to ingest.
func (x *Index) SaveDir(dir string) error { return x.SaveDirFS(dir, faultinject.OS{}) }

// SaveDirFS is SaveDir with an explicit file system — the
// fault-injection seam. Every write the checkpoint performs goes
// through fsys, so tests interpose a faultinject.FaultyFS and verify
// that a save interrupted by torn writes or disk-full leaves the
// directory opening as the complete previous index.
func (x *Index) SaveDirFS(dir string, fsys faultinject.FS) error {
	// Snapshot under ingestMu so ids and segment states agree; writing
	// happens after release.
	x.ingestMu.Lock()
	v := checkpointView{seed: x.cfg.Seed, ids: x.ids.Load().Strings(), shards: make([]shardView, len(x.shards))}
	for s := range x.shards {
		v.shards[s] = x.viewShard(s)
	}
	x.ingestMu.Unlock()
	gen, err := x.writeCheckpoint(dir, v, fsys)
	if err != nil {
		return err
	}
	x.generation.Store(uint64(gen))
	return nil
}

// Open loads an index saved by SaveDir. The manifest supplies the
// structural configuration (shards, rank, seed, vocabulary dimension);
// cfg supplies the runtime knobs — SealEvery (0 keeps the saved value),
// AutoCompact, Engine. Segments reload exactly as saved and
// serve identical scores, numbered by their position (see
// ManifestSegment); retained raw documents are not persisted, so
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
	ids, err := idtable.FromJSON(idsData)
	if err != nil {
		return nil, fmt.Errorf("shard: open %s: %w", man.IDsFile, err)
	}
	if ids.Len() != man.NumDocs {
		return nil, fmt.Errorf("shard: open: %d ids for %d documents", ids.Len(), man.NumDocs)
	}

	x := newIndex(man.NumTerms, cfg)
	x.generation.Store(uint64(man.Generation))
	x.ids.Store(&ids)
	for s, entries := range man.Segments {
		st, local := &shardState{}, 0
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
			seg, err := segment.FromRule(ix, s+man.Shards*local, man.Shards, nil, e.Compacted) // local l is global s + Shards·l
			local += e.Docs
			if err != nil {
				return nil, fmt.Errorf("shard: open segment %s: %w", e.File, err)
			}
			// Decode the sidecars the manifest names and hand them over;
			// WithTiers trains any the opening config asks for beyond them.
			ann := readSidecar(x, dir, e.ANNFile, ivf.Read)
			qm := readSidecar(x, dir, e.QuantFile, quant.Read)
			if seg, err = seg.WithTiers(x.tiers(s), ann, qm); err != nil {
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

// readSidecar reads the sidecar file a manifest segment names, or returns
// nil when it names none; read maps the file where it can. A sidecar is
// derived state: one that is missing or does not read (corrupt, or a
// version this build does not read) is counted (SidecarsDegraded), logged
// and treated as absent — WithTiers retrains it from the segment's
// vectors when the config asks for the tier; otherwise the scan is exact.
func readSidecar[T any](x *Index, dir, name string, read func(io.Reader) (*T, error)) *T {
	if name == "" {
		return nil
	}
	var v *T
	f, err := os.Open(filepath.Join(dir, name))
	if err == nil {
		v, err = read(f)
		f.Close() // a mapping outlives its file
	}
	if err != nil {
		x.sidecarsDegraded.Add(1)
		slog.Warn("shard: open: unusable sidecar treated as absent", "file", name, "err", err)
		return nil
	}
	return v
}
