package shard

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/blob"
	"repro/internal/faultinject"
	"repro/internal/lsi"
)

// generation is a checkpoint file taken apart, for tests that edit one.
type generation struct {
	man   *manifest
	text  []byte
	parts [][]Part
}

// readGeneration takes dir's newest generation file apart.
func readGeneration(t testing.TB, dir string) *generation {
	t.Helper()
	r := blob.NewReader(bytes.NewReader(newestFile(t, dir)))
	man, err := readHead(r)
	if err != nil {
		t.Fatal(err)
	}
	g := &generation{man: man, text: r.Bytes(tagText, -1), parts: make([][]Part, man.Shards)}
	for s, segs := range man.Segments {
		for _, e := range segs {
			p := Part{Docs: e.Docs, Compacted: e.Compacted, Index: r.Bytes(tagSegment, -1)}
			if ann := r.Bytes(tagANN, -1); e.ANN {
				p.ANN = ann
			}
			if qnt := r.Bytes(tagQuant, -1); e.Quant {
				p.Quant = qnt
			}
			g.parts[s] = append(g.parts[s], p)
		}
	}
	if err := r.End(); err != nil {
		t.Fatal(err)
	}
	return g
}

// editCheckpoint rewrites dir's newest generation as the next one, with
// edit applied to its parts (a nil ANN or Quant drops that sidecar).
func editCheckpoint(t testing.TB, dir string, edit func(parts [][]Part)) {
	t.Helper()
	g := readGeneration(t, dir)
	edit(g.parts)
	if _, err := writeGeneration(faultinject.OS{}, dir, g.man, g.text, g.parts); err != nil {
		t.Fatal(err)
	}
}

// countParts counts the segments of dir's newest generation that carry an
// IVF and an int8 sidecar.
func countParts(t testing.TB, dir string) (ann, quant int) {
	t.Helper()
	for _, segs := range readGeneration(t, dir).parts {
		for _, p := range segs {
			if p.ANN != nil {
				ann++
			}
			if p.Quant != nil {
				quant++
			}
		}
	}
	return ann, quant
}

// onlyFile fails unless dir holds exactly one file, its newest generation.
func onlyFile(t testing.TB, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	path, _, err := Latest(dir)
	if err != nil || len(entries) != 1 || entries[0].Name() != filepath.Base(path) {
		t.Fatalf("the directory holds %v, want its newest generation alone (%v)", entries, err)
	}
}

// A directory an earlier build saved as many files, or none at all, does
// not open: the error says how to convert it.
func TestOpenRefusesOldDirectory(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"manifest.json", "ids-0.json", "seg-0-0-0.idx"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("{}"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := Open(dir, Config{}); err == nil || !strings.Contains(err.Error(), "lsiquery -upgrade") {
		t.Fatalf("opening an old directory: %v, want an error naming lsiquery -upgrade", err)
	}
}

// fuzzCheckpoint is a small tiered checkpoint: two shards, each holding
// its base and a settled tier (both with both sidecars), a sealed fold-in
// and a live one, every segment but the base with an empty BASI. It
// returns the directory and its one file's bytes.
func fuzzCheckpoint(t testing.TB) (string, []byte) {
	a := testMatrix(t, 3, 6, 24, 901)
	x, err := Build(a, defaultIDs(24), nil, Config{Shards: 2, Rank: 3, Seed: 5, SealEvery: 2, ANNList: 3, Quantize: true, TierMinDocs: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	for i := 0; i < 10; i++ {
		terms, weights := sparseCol(a, i)
		if _, err := x.Add(Doc{Terms: terms, Weights: weights}); err != nil {
			t.Fatal(err)
		}
		if i == 3 {
			if _, err := x.Compact(); err != nil {
				t.Fatal(err)
			}
		}
	}
	dir := t.TempDir()
	if err := x.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	return dir, newestFile(t, dir)
}

// newestFile is the bytes of dir's newest generation file.
func newestFile(t testing.TB, dir string) []byte {
	t.Helper()
	path, _, err := Latest(dir)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// segmentIndex loads the index of parts[i], a shard's segments as
// readGeneration returns them, against the shard's base.
func segmentIndex(t testing.TB, parts []Part, i int) (ix, base *lsi.Index) {
	t.Helper()
	base, err := lsi.LoadIn(bytes.NewReader(parts[0].Index), nil)
	if err == nil {
		ix, err = lsi.LoadIn(bytes.NewReader(parts[i].Index), base)
	}
	if err != nil {
		t.Fatal(err)
	}
	return ix, base
}

// encode is ix's SEGM payload written against base (lsi.SaveIn).
func encode(t testing.TB, ix, base *lsi.Index) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := ix.SaveIn(&buf, base); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// basisless is the SEGM payload of a rank-k index over n terms holding m
// zero documents and no basis.
func basisless(k, n, m int) []byte {
	var buf bytes.Buffer
	w := blob.NewWriter(&buf, lsi.Magic, lsi.WireVersion, 5)
	var dims []byte
	for _, d := range []int{k, n, m} {
		dims = binary.LittleEndian.AppendUint64(dims, uint64(d))
	}
	w.Bytes("DIMS", dims)
	w.Floats("SIGM", make([]float64, k))
	w.Bytes("TEXT", nil)
	w.Floats("BASI", nil)
	w.Float32s("DOCS", make([]float32, m*k))
	w.Close() // a bytes.Buffer takes every write
	return buf.Bytes()
}

// hostile is a checkpoint whose open must fail with an error naming want.
type hostile struct {
	name, want string
	data       []byte
}

// hostileBases are checkpoints, edited from dir's (per shard: base,
// settled tier, sealed fold-in, live fold-in), whose shard 1 breaks the
// one-basis rule: segment 0 is the base, compacted and holding the
// basis, and every later segment shares that basis.
func hostileBases(t testing.TB, dir string) []hostile {
	t.Helper()
	out := []hostile{}
	for _, c := range []struct {
		name, want string
		edit       func(segs []Part)
	}{
		// The base without a basis: its rows over its basis, not the base.
		{"base without a basis", "shard 1 segment 0", func(segs []Part) {
			ix, base := segmentIndex(t, segs, 0)
			grown, err := ix.ExtendedSparse(nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			segs[0].Index = encode(t, grown, base)
		}},
		// A base no pass would ever merge, pinning sealedPending above 0.
		{"uncompacted base", "shard 1 segment 0, its base, is not compacted", func(segs []Part) {
			segs[0].Compacted = false
		}},
		// Segments without a basis whose rank or terms are not the base's.
		{"rank unlike the base", "shard 1 segment 2", func(segs []Part) {
			_, base := segmentIndex(t, segs, 0)
			segs[2].Index = basisless(base.K()-1, base.NumTerms(), segs[2].Docs)
		}},
		{"terms unlike the base", "shard 1 segment 3", func(segs []Part) {
			_, base := segmentIndex(t, segs, 0)
			segs[3].Index = basisless(base.K(), base.NumTerms()+1, segs[3].Docs)
		}},
		// A converted directory from before settled tiers can hold a
		// fold-in ahead of a tier re-decomposed over a basis of its own:
		// it is refused, naming the rebuild, not served in two spaces.
		{"TestOpenSettlesFoldInsBeforeAForeignTier",
			"shard 1 segment 2: lsi: load: a basis other than the base's it must share; rebuild the index from its source documents",
			func(segs []Part) {
				tier, _ := segmentIndex(t, segs, 2)
				n, k := tier.Basis().Dims()
				uk := slices.Clone(tier.Basis().RawData())
				uk[0] = -uk[0]
				own, err := lsi.NewIndexFromParts(lsi.IndexParts{K: k, NumTerms: n, Sigma: tier.SingularValues(), UkRows: n, UkData: uk,
					DocRows: tier.NumDocs(), DocData: tier.Docs().RawData()})
				if err != nil {
					t.Fatal(err)
				}
				segs[1].Compacted, segs[1].ANN, segs[1].Quant = false, nil, nil
				segs[2].Compacted, segs[2].Index = true, encode(t, own, nil)
			}},
	} {
		cp := t.TempDir()
		if err := os.CopyFS(cp, os.DirFS(dir)); err != nil {
			t.Fatal(err)
		}
		editCheckpoint(t, cp, func(parts [][]Part) { c.edit(parts[1]) })
		out = append(out, hostile{c.name, c.want, newestFile(t, cp)})
	}
	return out
}

// A SEGM without a basis is read only after its shard's base, and only
// if it fits that base, and a SEGM with one only if it is the base's:
// each hostile checkpoint fails to open with an error naming the segment.
func TestOpenRefusesSegmentsThatCannotShareTheBase(t *testing.T) {
	dir, _ := fuzzCheckpoint(t)
	for _, h := range hostileBases(t, dir) {
		t.Run(h.name, func(t *testing.T) {
			cp := t.TempDir()
			if err := os.WriteFile(filepath.Join(cp, "gen-0.lsi"), h.data, 0o644); err != nil {
				t.Fatal(err)
			}
			if x, err := Open(cp, Config{}); err == nil || !strings.Contains(err.Error(), h.want) {
				if err == nil {
					x.Close()
				}
				t.Errorf("opening a checkpoint whose %s cannot share the base: %v", h.want, err)
			}
		})
	}
}

// sections is where each section of a container starts (its header) and
// where its payload ends, by tag.
func sections(data []byte) (tags []string, starts, ends []int) {
	for off := 12; off+12 <= len(data); {
		n := int(binary.LittleEndian.Uint64(data[off+4:]))
		tags, starts, ends = append(tags, string(data[off:off+4])), append(starts, off), append(ends, off+12+n)
		off += 12 + (n+7)&^7 + 4
	}
	return tags, starts, ends
}

// FuzzOpenCheckpoint asserts the generation-file reader is total: any
// bytes — truncated, flipped, with hostile section lengths — open as a
// valid index or fail with an error, never a panic. Bytes changed only
// inside a sidecar's payload must not fail the open: the sidecar is
// derived state, counted as degraded and served by the exact scan. Run
// `go test -fuzz=FuzzOpenCheckpoint ./retrieval/shard` to explore further.
func FuzzOpenCheckpoint(f *testing.F) {
	dir, valid := fuzzCheckpoint(f)
	tags, starts, ends := sections(valid)
	f.Add(valid)
	mustFail := map[string]string{}
	for _, h := range hostileBases(f, dir) {
		f.Add(h.data)
		mustFail[string(h.data)] = h.want
	}
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:len(valid)-1])
	f.Add(valid[:12])
	for i, tag := range tags {
		long := bytes.Clone(valid) // a section claiming more bytes than follow
		binary.LittleEndian.PutUint64(long[starts[i]+4:], 1<<40)
		f.Add(long)
		flip := bytes.Clone(valid) // one byte of the payload flipped
		flip[(starts[i]+12+ends[i])/2] ^= 0x10
		f.Add(flip)
		if tag == tagANN || tag == tagQuant {
			torn := bytes.Clone(valid) // a sidecar's own header
			torn[starts[i]+12] ^= 0xff
			f.Add(torn)
		}
	}
	inDerived := func(at int) bool {
		for i, tag := range tags {
			if (tag == tagANN || tag == tagQuant) && at >= starts[i]+12 && at < ends[i] {
				return true
			}
		}
		return false
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		derivedOnly := len(data) == len(valid) && !bytes.Equal(data, valid)
		for i := range data {
			if derivedOnly && data[i] != valid[i] && !inDerived(i) {
				derivedOnly = false
			}
		}
		for _, r := range []*blob.Reader{blob.NewReader(bytes.NewReader(data)), blob.NewMappedReader(data)} {
			x, err := load(blob.NewReader(bytes.NewReader(data)), r, Config{})
			if want, ok := mustFail[string(data)]; ok && (err == nil || !strings.Contains(err.Error(), want)) {
				t.Fatalf("a segment that cannot share its shard's basis: %v, want an error naming %s", err, want)
			}
			if err != nil {
				if derivedOnly {
					t.Fatalf("a checkpoint whose sidecar alone is damaged does not open: %v", err)
				}
				continue
			}
			if derivedOnly && x.Stats().SidecarsDegraded == 0 {
				t.Fatal("a damaged sidecar was not counted as degraded")
			}
			x.SearchSparseOpts([]int{0}, []float64{1}, 3, routes["composed"])
			x.Close()
		}
	})
}

// FuzzParseCheckpointManifest asserts the MANI decoder is total: any
// bytes yield an error, or a manifest whose shards each hold exactly
// their round-robin share (ShareOf) and whose segment 0, the base, is
// compacted; never a panic. FuzzOpenCheckpoint's flips inside MANI fail
// the section checksum before the JSON is read, so this reaches the
// decoder directly. Seeds: the layout goldens and the manifest of every
// hostileBases checkpoint. Run `go test
// -fuzz=FuzzParseCheckpointManifest ./retrieval/shard` to explore further.
func FuzzParseCheckpointManifest(f *testing.F) {
	for _, name := range []string{"layout_savedir_manifest.json", "layout_export_manifest.json"} {
		data, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	dir, _ := fuzzCheckpoint(f)
	for _, h := range hostileBases(f, dir) {
		f.Add(manifestOf(f, h.data))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := parseManifest(data)
		if err != nil {
			if m != nil {
				t.Fatal("an error with a manifest")
			}
			return
		}
		if len(m.Segments) != m.Shards {
			t.Fatalf("accepted %d segment lists for %d shards", len(m.Segments), m.Shards)
		}
		for s, segs := range m.Segments {
			docs := 0
			for _, e := range segs {
				docs += e.Docs
			}
			if want := ShareOf(m.NumDocs, s, m.Shards); docs != want {
				t.Fatalf("accepted shard %d holding %d documents of numDocs=%d, want %d", s, docs, m.NumDocs, want)
			}
			if len(segs) > 0 && !segs[0].Compacted {
				t.Fatalf("accepted shard %d with an uncompacted base", s)
			}
		}
	})
}

// basisLen is the length of the BASI payload of a SEGM section's index.
func basisLen(t testing.TB, index []byte) int {
	t.Helper()
	tags, starts, ends := sections(index)
	for i, tag := range tags {
		if tag == "BASI" {
			return ends[i] - starts[i] - 12
		}
	}
	t.Fatal("a SEGM section without a BASI section")
	return 0
}

// A checkpoint holds each shard's basis once, in its base's SEGM, and the
// reopened index is the one that was saved: every segment shares its
// shard's basis again, answers bit for bit on every route, holds what the
// saved index held but the raw documents it drops, and the next pass
// settles the fold-ins it reloaded.
func TestCheckpointHoldsOneBasisPerShard(t *testing.T) {
	a := testMatrix(t, 4, 10, 60, 419)
	cfg := annConfig(2)
	cfg.Quantize = true
	x, err := Build(a, defaultIDs(60), nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	for i := 0; i < 90; i++ { // seals every 8 a shard, settled twice along the way
		terms, weights := sparseCol(a, (7*i)%60)
		if _, err := x.Add(Doc{Terms: terms, Weights: weights}); err != nil {
			t.Fatal(err)
		}
		if i == 33 || i == 65 {
			if _, err := x.Compact(); err != nil {
				t.Fatal(err)
			}
		}
	}
	raw, folded := 0, 0
	for _, seg := range x.Segments(nil) {
		raw += seg.Raw.NNZ()
		if !seg.Compacted {
			folded++
		}
	}
	saved := x.Stats()
	if saved.SealedPending == 0 || saved.Live == 0 || saved.Compacted <= 2 || saved.Tiers.QuantSegs <= 2 {
		t.Fatalf("the saved index lacks a kind of segment: %+v", saved)
	}
	dir := filepath.Join(t.TempDir(), "idx")
	if err := x.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	for s, segs := range readGeneration(t, dir).parts {
		bases := 0
		for i, p := range segs {
			if n := basisLen(t, p.Index); n > 0 {
				bases++
				if i > 0 {
					t.Errorf("shard %d segment %d: %d B of basis outside the base", s, i, n)
				}
			}
		}
		if bases != 1 {
			t.Errorf("shard %d: %d segments carry a basis, want 1", s, bases)
		}
	}

	cfg.AutoCompact = false
	y, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer y.Close()
	for s, sh := range y.shards {
		for i, seg := range sh.state.Load().stable {
			if !seg.Ix.SameBasis(sh.base) {
				t.Errorf("shard %d segment %d: a basis of its own", s, i)
			}
		}
	}
	sameOnEveryRoute(t, a, x, y)
	// The ID table reloads sized to fit, where ingest grew it by append.
	st := y.Stats()
	if got, want := st.MemoryBytes-y.ids.Load().Bytes(), saved.MemoryBytes-x.ids.Load().Bytes()-16*int64(raw); got != want {
		t.Errorf("segments hold %d B reopened, want %d: saved less %d raw weights", got, want, raw)
	}
	if st.SealedPending != folded || st.FoldedDocs != saved.FoldedDocs || st.Live != 0 {
		t.Errorf("reopened: %d sealed, %d live segments over %d folded documents, want %d, 0 and %d",
			st.SealedPending, st.Live, st.FoldedDocs, folded, saved.FoldedDocs)
	}
	if merged, err := y.Compact(); err != nil || merged < folded {
		t.Fatalf("one pass merged %d segments (%v), want the %d reloaded fold-ins at least", merged, err, folded)
	}
	if st := y.Stats(); st.SealedPending != 0 || st.FoldedDocs != 0 {
		t.Fatalf("after a pass: %d sealed over %d folded documents", st.SealedPending, st.FoldedDocs)
	}
	sameOnEveryRoute(t, a, x, y)
}
