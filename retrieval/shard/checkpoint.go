package shard

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"log/slog"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/blob"
	"repro/internal/faultinject"
	"repro/internal/idtable"
	"repro/internal/ivf"
	"repro/internal/lsi"
	"repro/internal/quant"
	"repro/internal/segment"
)

// Persistence: a sharded index saves to a directory as one file per
// checkpoint generation, gen-<g>.lsi, an internal/blob container of, in
// order: MANI, the manifest (JSON); TEXT, the owning layer's text layer
// and the external IDs (lsi.AppendText); and per segment, in manifest
// order, SEGM, its index in the lsi wire format, then ANNI and QUAN, its
// IVF and int8 sidecars, empty unless the manifest says it has them; only
// a shard's base, its segment 0, carries its basis (lsi.SaveIn), which
// every later segment shares. DESIGN.md "Checkpoint layout" has the whole
// picture; a directory an earlier build saved as many files converts with
// lsiquery -upgrade.

// genMagic opens every generation file; genVersion is the layout this
// build writes and the newest it reads (version 1 differs only in a
// basis per SEGM).
var genMagic = [blob.MagicLen]byte{'L', 'S', 'I', 'G', 'E', 'N'}

const (
	genVersion = 2
	genFileFmt = "gen-%d.lsi"
	// receiveName is where Receive puts a file until it knows its
	// generation. Temp names end in genTemp: no temp is a generation file.
	receiveName = "gen-received.lsi"
	genTemp     = ".lsi" + faultinject.TempSuffix

	tagManifest, tagText, tagSegment, tagANN, tagQuant = "MANI", "TEXT", "SEGM", "ANNI", "QUAN"
)

// generationOf recognises a generation file's name, exactly as the
// writer makes it, and returns its generation.
func generationOf(name string) (gen int, ok bool) {
	n, _ := fmt.Sscanf(name, genFileFmt, &gen)
	return gen, n == 1 && gen >= 0 && name == fmt.Sprintf(genFileFmt, gen)
}

// manifest is a checkpoint's structure: its file's first section.
type manifest struct {
	Generation int                 `json:"generation"`
	Shards     int                 `json:"shards"`
	Rank       int                 `json:"rank"`
	Seed       int64               `json:"seed"`
	NumTerms   int                 `json:"numTerms"`
	NumDocs    int                 `json:"numDocs"`
	SealEvery  int                 `json:"sealEvery"`
	Segments   [][]manifestSegment `json:"segments"` // [shard][i]
}

// manifestSegment describes one segment. The segments of shard s hold its
// shard-local documents 0, 1, 2, … in manifest order, and local l is
// global s + Shards·l; the first is the shard's base, whose basis every
// later one shares. ANN and Quant say that the ANNI and QUAN sections
// after the segment's SEGM section are not empty.
type manifestSegment struct {
	Docs      int  `json:"docs"`
	Compacted bool `json:"compacted"`
	ANN       bool `json:"ann,omitempty"`
	Quant     bool `json:"quant,omitempty"`
}

// parseManifest decodes and validates a MANI section: each shard's
// segments must hold exactly its round-robin share of NumDocs, and its
// base is compacted (built or decomposed so), since no pass merges it.
func parseManifest(data []byte) (*manifest, error) {
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("manifest: %w", err)
	}
	switch {
	case m.Generation < 0 || m.Shards < 1 || m.Rank < 1 || m.NumTerms < 1 || m.NumDocs < 0 || m.SealEvery < 0:
		return nil, fmt.Errorf("manifest: generation %d, %d shards, rank %d, %d terms, %d documents, sealEvery %d out of range",
			m.Generation, m.Shards, m.Rank, m.NumTerms, m.NumDocs, m.SealEvery)
	case len(m.Segments) != m.Shards:
		return nil, fmt.Errorf("manifest: segment lists for %d shards, manifest declares %d", len(m.Segments), m.Shards)
	}
	for s, segs := range m.Segments {
		if len(segs) > 0 && !segs[0].Compacted {
			return nil, fmt.Errorf("manifest: shard %d segment 0, its base, is not compacted", s)
		}
		local, share := 0, ShareOf(m.NumDocs, s, m.Shards)
		for i, e := range segs {
			// Bounded before it is summed, so a hostile docs cannot overflow.
			if e.Docs < 0 || e.Docs > share-local {
				return nil, fmt.Errorf("manifest: shard %d segment %d: docs=%d, but numDocs=%d leaves shard %d %d more documents",
					s, i, e.Docs, m.NumDocs, s, share-local)
			}
			local += e.Docs
		}
		if local != share {
			return nil, fmt.Errorf("manifest: shard %d: segments hold %d documents, numDocs=%d gives it %d", s, local, m.NumDocs, share)
		}
	}
	return &m, nil
}

// ShareOf is shard s's round-robin share of numDocs documents: the
// globals s, s+shards, s+2·shards, … below numDocs.
func ShareOf(numDocs, s, shards int) int {
	return numDocs/shards + min(1, max(0, numDocs%shards-s))
}

// Part is one segment of a checkpoint: its manifest entry and its
// encodings, the index in the lsi wire format and the optional IVF and
// int8 sidecars (nil when absent). The Parts of a view hold the segment
// and its shard's base instead, encoded only when the writer reaches it,
// so a checkpoint never holds two segments' encodings at once.
type Part struct {
	Docs              int
	Compacted         bool
	Index, ANN, Quant []byte
	seg               *segment.Segment
	base              *lsi.Index
}

// encoded is p with its encodings, made from its segment if it has one.
// The sidecars index segment-local rows: the same bytes in an export as
// in a SaveDir.
func (p Part) encoded() (Part, error) {
	if p.seg == nil {
		return p, nil
	}
	var buf bytes.Buffer
	buf.Grow(p.seg.Ix.EncodedSize(p.base))
	err := p.seg.Ix.SaveIn(&buf, p.base)
	p.Index = buf.Bytes()
	if p.seg.Ann != nil {
		p.ANN = p.seg.Ann.Encode()
	}
	if p.seg.Quant != nil {
		p.Quant = p.seg.Quant.Encode()
	}
	return p, err
}

// writeGeneration, the only writer of a checkpoint, writes parts — per
// shard, its segments in order — into dir (created if needed) as a new
// generation, one past the newest there, and returns it; man holds the
// rest of the manifest, text the TEXT section. The file is written under a
// temp name through fsys and committed (commit): a crash at any point
// leaves dir opening as the complete old or the complete new checkpoint.
func writeGeneration(fsys faultinject.FS, dir string, man *manifest, text []byte, parts [][]Part) (int, error) {
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return 0, fmt.Errorf("shard: save: %w", err)
	}
	before, err := fsys.ReadDir(dir)
	if err != nil {
		return 0, fmt.Errorf("shard: save: %w", err)
	}
	for _, e := range before {
		if g, ok := generationOf(e.Name()); ok {
			man.Generation = max(man.Generation, g+1)
		}
	}
	man.Shards, man.Segments = len(parts), make([][]manifestSegment, len(parts))
	sections := 2
	for s, segs := range parts {
		for _, p := range segs {
			e := manifestSegment{Docs: p.Docs, Compacted: p.Compacted, ANN: p.ANN != nil, Quant: p.Quant != nil}
			if p.seg != nil {
				e.ANN, e.Quant = p.seg.Ann != nil, p.seg.Quant != nil
			}
			man.Segments[s], sections = append(man.Segments[s], e), sections+3
		}
	}
	name := fmt.Sprintf(genFileFmt, man.Generation)
	tmp := filepath.Join(dir, name+faultinject.TempSuffix)
	f, err := fsys.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err == nil {
		err = commit(fsys, f, dir, tmp, name, before, writeSections(f, man, text, parts, sections))
	}
	if err != nil {
		return 0, fmt.Errorf("shard: save %s: %w", name, err)
	}
	return man.Generation, nil
}

// writeSections writes the generation file's container to w.
func writeSections(w io.Writer, man *manifest, text []byte, parts [][]Part, sections int) error {
	head, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return err
	}
	bw := blob.NewWriter(w, genMagic, genVersion, uint32(sections))
	bw.Bytes(tagManifest, head)
	bw.Bytes(tagText, text)
	for s, segs := range parts {
		for i, p := range segs {
			if p, err = p.encoded(); err != nil {
				return fmt.Errorf("shard %d segment %d: %w", s, i, err)
			}
			bw.Bytes(tagSegment, p.Index)
			bw.Bytes(tagANN, p.ANN)
			bw.Bytes(tagQuant, p.Quant)
		}
	}
	return bw.Close()
}

// commit makes f, the temp file tmp in dir whose writing ended in err,
// the generation file name: f is synced and closed, renamed into place —
// the commit point — and the directory synced; only then is every
// generation and temp file listed in before deleted, best effort (Open
// ignores leftovers, the next checkpoint retires them). An index opened
// from a deleted file keeps its pages: a mapping outlives the unlink, a
// streamed file was read whole. On error the temp file goes.
func commit(fsys faultinject.FS, f faultinject.File, dir, tmp, name string, before []os.DirEntry, err error) error {
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fsys.Rename(tmp, filepath.Join(dir, name))
	}
	if err != nil {
		fsys.Remove(tmp)
		return err
	}
	if err := fsys.SyncDir(dir); err != nil {
		return err
	}
	for _, e := range before {
		if _, ok := generationOf(e.Name()); (ok || strings.HasSuffix(e.Name(), genTemp)) && e.Name() != name {
			fsys.Remove(filepath.Join(dir, e.Name()))
		}
	}
	return nil
}

// viewShard snapshots shard s for a checkpoint: its segments, in the order
// that numbers their documents, each to be written against the shard's
// base. Callers hold ingestMu so the ID table and the segment states of
// one view agree.
func (x *Index) viewShard(s int) []Part {
	var parts []Part
	base := x.shards[s].base
	for _, seg := range x.shards[s].state.Load().segments(nil) {
		parts = append(parts, Part{Docs: seg.Len(), Compacted: seg.Compacted, seg: seg, base: base})
	}
	return parts
}

// writeCheckpoint writes a view of the index — ids and the parts of its
// shards, with seed — to dir as a new generation and returns it.
func (x *Index) writeCheckpoint(dir string, seed int64, ids []string, parts [][]Part, fsys faultinject.FS) (int, error) {
	text := *x.text
	text.DocIDs = ids
	man := &manifest{Rank: x.cfg.Rank, Seed: seed, NumTerms: x.numTerms, NumDocs: len(ids), SealEvery: x.cfg.SealEvery}
	return writeGeneration(fsys, dir, man, lsi.AppendText(nil, &text), parts)
}

// Import writes a checkpoint of parts — per shard, its segments in order —
// into dir as SaveDir writes one: cfg supplies Rank, Seed and SealEvery,
// text the text layer and the external IDs in global order (DocIDs). It
// is how the offline converter (internal/legacy) writes a directory of an
// earlier layout in this one; Open validates what it wrote.
func Import(dir string, cfg Config, numTerms int, text *lsi.Meta, parts [][]Part) error {
	man := &manifest{Rank: cfg.Rank, Seed: cfg.Seed, NumTerms: numTerms, NumDocs: len(text.DocIDs), SealEvery: cfg.SealEvery}
	_, err := writeGeneration(faultinject.OS{}, dir, man, lsi.AppendText(nil, text), parts)
	return err
}

// SaveDir writes the index to dir (created if needed) as a new checkpoint
// generation (writeGeneration). The snapshot is taken atomically with
// respect to ingest.
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
	ids, parts := x.ids.Load().Strings(), make([][]Part, len(x.shards))
	for s := range x.shards {
		parts[s] = x.viewShard(s)
	}
	x.ingestMu.Unlock()
	gen, err := x.writeCheckpoint(dir, x.cfg.Seed, ids, parts, fsys)
	if err != nil {
		return err
	}
	x.generation.Store(uint64(gen))
	return nil
}

// Latest is the path and generation of the newest checkpoint generation
// in dir: the file Open reads, and what a primary serves its replicas.
// A directory without one — empty, or saved by an earlier build as many
// files — fails with an error that says so and matches fs.ErrNotExist.
func Latest(dir string) (path string, gen int, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", 0, fmt.Errorf("shard: open: %w", err)
	}
	gen = -1
	for _, e := range entries {
		if g, ok := generationOf(e.Name()); ok {
			gen = max(gen, g)
		}
	}
	if gen < 0 {
		return "", 0, fmt.Errorf("shard: open %s: %w: no checkpoint generation file (gen-<g>.lsi); "+
			"a directory an earlier build saved converts with lsiquery -upgrade IN OUT", dir, fs.ErrNotExist)
	}
	return filepath.Join(dir, fmt.Sprintf(genFileFmt, gen)), gen, nil
}

// Receive puts a generation file fetched from elsewhere — a replica's pull
// of its primary's newest — into dir as its newest checkpoint and returns
// its generation. fill writes the file's bytes to f, and may truncate and
// rewrite them (a resumed download). Its header and manifest are checked
// (Open checks the rest), then it is committed as a save commits its file.
func Receive(dir string, fill func(f *os.File) error) (int, error) {
	before, err := os.ReadDir(dir)
	if errors.Is(err, fs.ErrNotExist) {
		err = os.MkdirAll(dir, 0o755)
	}
	var f *os.File
	if err == nil {
		f, err = os.Create(filepath.Join(dir, receiveName+faultinject.TempSuffix))
	}
	if err != nil {
		return 0, fmt.Errorf("shard: receive: %w", err)
	}
	var man *manifest
	var name string
	if err = fill(f); err == nil {
		if _, err = f.Seek(0, io.SeekStart); err == nil {
			man, err = readHead(blob.NewReader(io.MultiReader(f))) // a plain reader: f is not mapped
		}
	}
	if err == nil {
		name = fmt.Sprintf(genFileFmt, man.Generation)
	}
	if err = commit(faultinject.OS{}, f, dir, f.Name(), name, before, err); err != nil {
		return 0, fmt.Errorf("shard: receive: %w", err)
	}
	return man.Generation, nil
}

// Open loads the newest checkpoint generation in dir (Latest), mapping
// its file once. The checkpoint supplies the structure (shards, rank,
// seed, terms) and the text layer (Text); cfg the runtime knobs —
// SealEvery (0 keeps the saved value), AutoCompact, the tiers. Segments
// reload exactly as saved and serve identical scores, numbered by their
// position (see manifestSegment), and merge as they would have.
func Open(dir string, cfg Config) (*Index, error) {
	path, _, err := Latest(dir)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(path)
	var st os.FileInfo
	if err == nil {
		defer f.Close() // a mapping outlives its file
		st, err = f.Stat()
	}
	if err != nil {
		return nil, fmt.Errorf("shard: open: %w", err)
	}
	x, err := load(blob.NewReader(io.NewSectionReader(f, 0, st.Size())), blob.NewReader(f), cfg)
	if err != nil {
		return nil, fmt.Errorf("shard: open %s: %w", path, err)
	}
	return x, nil
}

// readHead reads a generation file's header and manifest.
func readHead(r *blob.Reader) (*manifest, error) {
	if !r.HasMagic(genMagic) {
		return nil, errors.New("not a checkpoint generation file")
	}
	if v := r.Header(); r.Err() == nil && (v < 1 || v > genVersion) {
		return nil, fmt.Errorf("checkpoint version %d is not supported by this build (it reads 1..%d)", v, genVersion)
	}
	head := r.Bytes(tagManifest, -1)
	if r.Err() != nil {
		return nil, r.Err()
	}
	return parseManifest(head)
}

// load reads a generation file twice over: its manifest and text layer
// from head, a stream, so those pages are not left mapped; the rest from
// r, which it maps where it can, each segment and sidecar through a Reader
// over its part of the mapping whose arrays hold the mapping. The IDs are
// copied into the heap (idtable): the strings At returns outlive a
// swapped index.
func load(head, r *blob.Reader, cfg Config) (*Index, error) {
	man, err := readHead(head)
	if err != nil {
		return nil, err
	}
	text := head.Bytes(tagText, -1)
	if err := head.Err(); err != nil || len(text) == 0 {
		return nil, cmp.Or(err, errors.New("empty text section"))
	}
	var ids idtable.Table
	meta, err := lsi.ParseText(text, &ids)
	if err != nil {
		return nil, err
	}
	if ids.Len() != man.NumDocs || len(meta.Vocab) > 0 && len(meta.Vocab) != man.NumTerms {
		return nil, fmt.Errorf("text section holds %d ids and %d terms for %d documents and %d terms",
			ids.Len(), len(meta.Vocab), man.NumDocs, man.NumTerms)
	}

	cfg.Shards, cfg.Rank, cfg.Seed = man.Shards, man.Rank, man.Seed
	if cfg.SealEvery <= 0 {
		cfg.SealEvery = man.SealEvery
	}
	cfg = cfg.withDefaults()
	x := newIndex(man.NumTerms, cfg)
	x.text = meta
	x.generation.Store(uint64(man.Generation))
	x.ids.Store(&ids)
	r.Header() // head has read and checked these bytes: pass over them
	r.Nested(tagManifest)
	r.Nested(tagText)
	for s, entries := range man.Segments {
		sh, local := x.shards[s], 0
		segs := make([]*segment.Segment, len(entries))
		for i, e := range entries {
			seg, err := x.loadSegment(r, s, i, s+man.Shards*local, e, sh.base) // local l is global s + Shards·l
			if err != nil {
				return nil, fmt.Errorf("shard %d segment %d: %w", s, i, err)
			}
			local += e.Docs
			if segs[i] = seg; i == 0 { // the base, read with its basis: every later segment shares it
				sh.base = seg.Ix
			}
		}
		sh.state.Store(&shardState{stable: segs})
	}
	if err := r.End(); err != nil {
		return nil, err
	}
	x.startCompactor()
	x.wakeCompactor() // reloaded fold-ins are debt
	return x, nil
}

// loadSegment reads shard s's segment i, described by e, whose first
// document is global first, and its sidecars; WithTiers trains any the
// opening config asks for beyond them. Given the shard's base, the
// segment must share its basis (lsi.LoadIn).
func (x *Index) loadSegment(r *blob.Reader, s, i, first int, e manifestSegment, base *lsi.Index) (*segment.Segment, error) {
	ix, err := lsi.LoadIn(r.Nested(tagSegment), base)
	if err != nil {
		return nil, err
	}
	if ix.NumTerms() != x.numTerms || ix.NumDocs() != e.Docs {
		return nil, fmt.Errorf("%d terms and %d documents, manifest says %d and %d", ix.NumTerms(), ix.NumDocs(), x.numTerms, e.Docs)
	}
	seg, err := segment.FromRule(ix, first, x.cfg.Shards, nil, e.Compacted)
	if err != nil {
		return nil, err
	}
	ann := readDerived(x, r, tagANN, e.ANN, s, i, ivf.Read)
	qm := readDerived(x, r, tagQuant, e.Quant, s, i, quant.Read)
	if r.Err() != nil {
		return nil, r.Err()
	}
	return seg.WithTiers(x.tiers(s), ann, qm)
}

// readDerived reads the next section, the sidecar tagged tag of shard s's
// segment i, empty unless has. A sidecar is derived state: one that does
// not read (corrupt, or of a version this build does not read) is counted
// (Stats.SidecarsDegraded), logged and treated as absent, so WithTiers retrains
// it when the config asks for the tier. A failure of the container itself
// is r's, and fails the open.
func readDerived[T any](x *Index, r *blob.Reader, tag string, has bool, s, i int, read func(io.Reader) (*T, error)) *T {
	sub := r.Nested(tag)
	if r.Err() != nil || !has {
		return nil
	}
	v, err := read(sub)
	if err != nil {
		x.sidecarsDegraded.Add(1)
		slog.Warn("shard: open: unusable sidecar treated as absent", "shard", s, "segment", i, "section", tag, "err", err)
		return nil
	}
	return v
}
