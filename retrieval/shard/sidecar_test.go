package shard

import (
	"bytes"
	"encoding/json"
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

// mapsFiles reports whether the files of dir's checkpoint can be mapped
// on this platform.
func mapsFiles(t *testing.T, dir string) bool {
	t.Helper()
	f, err := os.Open(filepath.Join(dir, ManifestName))
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

// An opened checkpoint serves its int8 tier from the sidecar file: each
// sidecar adds one mapping and costs the heap a small part of its codes,
// every route answers bitwise as the index that saved it, and the
// mappings go with the last index holding them, searched until then.
func TestOpenedTiersAreMapped(t *testing.T) {
	docs := 16384
	if race.Enabled {
		docs = 2048
	}
	a := testMatrix(t, 8, 10, docs, 515)
	x, err := Build(a, defaultIDs(docs), Config{Shards: 1, Rank: 32, Seed: 77, SealEvery: 8, ANNList: 16, Quantize: true, TierMinDocs: 1})
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
	data, err := os.ReadFile(filepath.Join(bare, ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	man, err := ParseManifest(data)
	if err != nil {
		t.Fatal(err)
	}
	var quantFile string
	for _, entries := range man.Segments {
		for i := range entries {
			quantFile, entries[i].QuantFile = entries[i].QuantFile, ""
		}
	}
	if data, err = json.MarshalIndent(man, "", "  "); err != nil { // as SaveDir writes it
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(bare, ManifestName), data, 0o644); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(filepath.Join(dir, quantFile))
	if err != nil {
		t.Fatal(err)
	}

	b, bareMappings, bareAlloc := openCounted(t, bare)
	bareStats, bareQuant := b.Stats(), quantSegments(b)
	b.Close()
	b = nil
	y, mappings, alloc := openCounted(t, dir) // no defer: dropping y is part of the test
	if got := quantSegments(y); got != 1 || bareQuant != 0 {
		t.Fatalf("%d and %d int8 segments opened, want 1 and 0", got, bareQuant)
	}
	if mapsFiles(t, dir) {
		if mappings != bareMappings+1 {
			t.Errorf("the int8 sidecar took %d mappings, want 1", mappings-bareMappings)
		}
		if got := y.Stats().MappedBytes - bareStats.MappedBytes; got != info.Size() {
			t.Errorf("MappedBytes grew by %d with the int8 sidecar, want its %d bytes", got, info.Size())
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

// testdata/v1-sidecars is the checkpoint a build before sidecar version 2
// saved from this corpus and configuration. It opens with both sidecars
// counted as degraded and retrains them bitwise as a fresh build trains
// them; the index files beside them are the bytes a fresh build saves, and
// its version-1 manifest is a fresh build's less the globals lists; and
// the next checkpoint writes the tiers in version 2.
func TestOpenRetrainsVersion1Sidecars(t *testing.T) {
	cfg := Config{Shards: 1, Rank: 4, Seed: 77, SealEvery: 8, ANNList: 6, Quantize: true, TierMinDocs: 1}
	a := testMatrix(t, 4, 10, 40, 514)
	x, err := Build(a, defaultIDs(40), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	fresh := filepath.Join(t.TempDir(), "fresh")
	if err := x.SaveDir(fresh); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "v1")
	if err := os.CopyFS(dir, os.DirFS(filepath.Join("testdata", "v1-sidecars"))); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{ManifestName, "ids-0.json", "seg-0-0-0.idx"} {
		old, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		now, err := os.ReadFile(filepath.Join(fresh, name))
		if err == nil && name == ManifestName {
			old, now = manifestSansGlobals(t, old), manifestSansGlobals(t, now)
		}
		if err != nil || !bytes.Equal(now, old) {
			t.Errorf("%s: a fresh build saves other bytes than the version-1 checkpoint (%v)", name, err)
		}
	}

	y, err := Open(dir, Config{ANNList: cfg.ANNList, Quantize: true, TierMinDocs: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer y.Close()
	if got := y.SidecarsDegraded(); got != 2 {
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
	if got := z.SidecarsDegraded(); got != 0 || annSegments(z) != 1 || quantSegments(z) != 1 {
		t.Fatalf("after a checkpoint: %d degraded, %d IVF and %d int8 segments; want 0, 1, 1", got, annSegments(z), quantSegments(z))
	}
	sameOnEveryRoute(t, a, x, z)
}

// manifestSansGlobals re-encodes manifest bytes as the newest version,
// dropping a version-1 manifest's globals lists.
func manifestSansGlobals(t *testing.T, data []byte) []byte {
	t.Helper()
	man, err := ParseManifest(data)
	if err != nil {
		t.Fatal(err)
	}
	man.Version = ManifestVersion
	for _, segs := range man.Segments {
		for i := range segs {
			segs[i].Globals = nil
		}
	}
	if data, err = json.MarshalIndent(man, "", "  "); err != nil {
		t.Fatal(err)
	}
	return data
}
