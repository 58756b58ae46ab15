package shard

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/blob"
	"repro/internal/par"
	"repro/internal/race"
	"repro/internal/segment"
	"repro/internal/sparse"
)

// routes are the searches a segment with both tiers answers: the exact
// scan, the IVF probe, the int8 scan and rerank, and the two composed.
var routes = map[string]segment.ProbeOptions{
	"exact": {}, "ann": {NProbe: 2}, "quant": {Beta: 3}, "composed": {NProbe: 2, Beta: 3},
}

// sameOnEveryRoute checks that y answers the first columns of a on every
// route bitwise as x does, with one worker and with two.
func sameOnEveryRoute(t *testing.T, a *sparse.CSR, x, y *Index) {
	t.Helper()
	for _, procs := range []int{1, 2} {
		func() {
			defer par.SetMaxProcs(par.SetMaxProcs(procs))
			for name, opts := range routes {
				for j := 0; j < 6; j++ {
					terms, weights := sparseCol(a, j)
					want, _ := x.SearchSparseOpts(terms, weights, 10, opts)
					got, _ := y.SearchSparseOpts(terms, weights, 10, opts)
					sameMatches(t, got, want, fmt.Sprintf("%s route, %d workers, query %d", name, procs, j))
				}
			}
		}()
	}
}

// settledMappings collects garbage until the mappings of dropped indexes
// are released — a cleanup does it some time after the collection — and
// returns how many are left.
func settledMappings() int {
	n := -1
	for deadline := time.Now().Add(20 * time.Second); n != blob.LiveMappings() && time.Now().Before(deadline); {
		n = blob.LiveMappings()
		runtime.GC()
		time.Sleep(5 * time.Millisecond)
	}
	return n
}

// mapsFiles reports whether dir's checkpoint file can be mapped on this
// platform.
func mapsFiles(t *testing.T, dir string) bool {
	t.Helper()
	path, _, err := Latest(dir)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	_, err = blob.Map(f)
	return err == nil
}

// openCounted opens dir and reports the mappings and the heap bytes the
// open added.
func openCounted(t *testing.T, dir string) (x *Index, mappings int, alloc uint64) {
	t.Helper()
	base := settledMappings()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	x, err := Open(dir, Config{})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	return x, blob.LiveMappings() - base, after.TotalAlloc - before.TotalAlloc
}

// An opened checkpoint serves its int8 tier from its file's one mapping:
// the sidecar adds no mapping and costs the heap a small part of its
// codes, every route answers bitwise as the index that saved it, and the
// mapping goes with the last index holding it, searched until then.
func TestOpenedTiersAreMapped(t *testing.T) {
	docs := 16384
	if race.Enabled {
		docs = 2048
	}
	a := testMatrix(t, 8, 10, docs, 515)
	x, err := Build(a, defaultIDs(docs), nil, Config{Shards: 1, Rank: 32, Seed: 77, SealEvery: 8, ANNList: 16, Quantize: true, TierMinDocs: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	dir := filepath.Join(t.TempDir(), "tiered")
	if err := x.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	// The same checkpoint without its int8 sidecars: what opening costs
	// beside them.
	bare := filepath.Join(t.TempDir(), "bare")
	if err := os.CopyFS(bare, os.DirFS(dir)); err != nil {
		t.Fatal(err)
	}
	var quantPart int
	editCheckpoint(t, bare, func(parts [][]Part) {
		for s := range parts {
			for i := range parts[s] {
				quantPart += len(parts[s][i].Quant)
				parts[s][i].Quant = nil
			}
		}
	})

	b, bareMappings, bareAlloc := openCounted(t, bare)
	bareStats, bareQuant := b.Stats(), quantSegments(b)
	b.Close()
	b = nil
	y, mappings, alloc := openCounted(t, dir) // no defer: dropping y is part of the test
	if got := quantSegments(y); got != 1 || bareQuant != 0 {
		t.Fatalf("%d and %d int8 segments opened, want 1 and 0", got, bareQuant)
	}
	if mapsFiles(t, dir) {
		if mappings != 1 || bareMappings != 1 {
			t.Errorf("opens took %d and %d mappings, want one each", mappings, bareMappings)
		}
		if st := y.Stats(); st.MappedBytes-bareStats.MappedBytes != st.Tiers.QuantBytes || st.Tiers.QuantBytes >= int64(quantPart) {
			t.Errorf("MappedBytes grew by %d with the %d-byte int8 sidecar, want its %d bytes of codes and scales",
				st.MappedBytes-bareStats.MappedBytes, quantPart, st.Tiers.QuantBytes)
		}
		codes := uint64(docs * 32)
		if got := alloc - bareAlloc; !race.Enabled && got > codes/4 {
			t.Errorf("reading the int8 sidecar allocated %d bytes, more than a quarter of its %d bytes of codes", got, codes)
		}
	}
	sameOnEveryRoute(t, a, x, y)

	// Two goroutines search y while more opens come and go under them.
	terms, weights := sparseCol(a, 3)
	opts := routes["composed"]
	want, _ := x.SearchSparseOpts(terms, weights, 10, opts)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if got, _ := y.SearchSparseOpts(terms, weights, 10, opts); fmt.Sprint(got) != fmt.Sprint(want) {
					t.Errorf("search under reopens: %v, want %v", got, want)
					return
				}
			}
		}()
	}
	for i := 0; i < 8; i++ {
		other, err := Open(dir, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := other.SearchSparseOpts(terms, weights, 10, opts); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("reopen %d answers %v, want %v", i, got, want)
		}
		other.Close()
		runtime.GC()
	}
	held := settledMappings()
	close(stop)
	wg.Wait()
	y.Close()
	y = nil
	if got := settledMappings(); got != held-mappings {
		t.Errorf("%d mappings live after the index was dropped, want %d", got, held-mappings)
	}
}

// testdata/v1-sidecars is the checkpoint directory a build before sidecar
// version 2 saved from this corpus and configuration. Its sidecars, put
// in place of a fresh checkpoint's, open counted as degraded and retrain
// bitwise as a fresh build trains them; its index file is the bytes a
// fresh build saves for the segment; and the next checkpoint writes the
// tiers in the current versions. testdata/v2-sidecars/ann-0-0-0.ivf is
// the same build's IVF sidecar in version 2 (delta-coded postings), which
// opens the same way: one sidecar degraded, the quantizer retrained
// bitwise. (internal/legacy converts the whole directory.)
func TestOpenRetrainsVersion1Sidecars(t *testing.T) {
	cfg := Config{Shards: 1, Rank: 4, Seed: 77, SealEvery: 8, ANNList: 6, Quantize: true, TierMinDocs: 1}
	a := testMatrix(t, 4, 10, 40, 514)
	x, err := Build(a, defaultIDs(40), nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	fresh := filepath.Join(t.TempDir(), "fresh")
	if err := x.SaveDir(fresh); err != nil {
		t.Fatal(err)
	}
	old := func(name string) []byte {
		data, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	if !bytes.Equal(readGeneration(t, fresh).parts[0][0].Index, old("v1-sidecars/seg-0-0-0.idx")) {
		t.Error("a fresh build saves other segment bytes than the version-1 checkpoint")
	}
	dir := filepath.Join(t.TempDir(), "v1")
	if err := os.CopyFS(dir, os.DirFS(fresh)); err != nil {
		t.Fatal(err)
	}
	editCheckpoint(t, dir, func(parts [][]Part) {
		parts[0][0].ANN, parts[0][0].Quant = old("v1-sidecars/ann-0-0-0.ivf"), old("v1-sidecars/quant-0-0-0.qnt")
	})

	y, err := Open(dir, Config{ANNList: cfg.ANNList, Quantize: true, TierMinDocs: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer y.Close()
	if got := y.Stats().SidecarsDegraded; got != 2 {
		t.Fatalf("%d sidecars counted as degraded, want 2", got)
	}
	xs, ys := x.Segments(nil), y.Segments(nil)
	if len(ys) != 1 || len(xs) != 1 || ys[0].Ann == nil || ys[0].Quant == nil {
		t.Fatal("the version-1 checkpoint did not open as one segment with both tiers")
	}
	if !bytes.Equal(ys[0].Ann.Encode(), xs[0].Ann.Encode()) || !bytes.Equal(ys[0].Quant.Encode(), xs[0].Quant.Encode()) {
		t.Fatal("the retrained tiers differ from a fresh build's")
	}
	sameOnEveryRoute(t, a, x, y)

	if err := y.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	z, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer z.Close()
	if got := z.Stats().SidecarsDegraded; got != 0 || annSegments(z) != 1 || quantSegments(z) != 1 {
		t.Fatalf("after a checkpoint: %d degraded, %d IVF and %d int8 segments; want 0, 1, 1", got, annSegments(z), quantSegments(z))
	}
	sameOnEveryRoute(t, a, x, z)

	editCheckpoint(t, fresh, func(parts [][]Part) { parts[0][0].ANN = old("v2-sidecars/ann-0-0-0.ivf") })
	w, err := Open(fresh, Config{ANNList: cfg.ANNList, Quantize: true, TierMinDocs: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if got := w.Stats().SidecarsDegraded; got != 1 {
		t.Fatalf("version-2 IVF sidecar: %d sidecars counted as degraded, want 1", got)
	}
	if ws := w.Segments(nil); len(ws) != 1 || ws[0].Ann == nil || !bytes.Equal(ws[0].Ann.Encode(), xs[0].Ann.Encode()) {
		t.Fatal("the version-2 IVF sidecar was not retrained as a fresh build trains it")
	}
	sameOnEveryRoute(t, a, x, w)
}
