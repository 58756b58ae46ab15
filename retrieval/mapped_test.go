package retrieval

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/blob"
	"repro/internal/par"
)

// mapsFiles reports whether this platform serves index files from
// mappings; where it does not, every open below takes the streaming arm
// and the equalities hold trivially.
func mapsFiles(t *testing.T) bool {
	t.Helper()
	f, err := os.Open("testdata/index_v3.lsi")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	_, err = blob.Map(f)
	return err == nil
}

// answers runs a fixed set of text and vector queries on ix.
func answers(t *testing.T, ix *Index, queries []string) [][]Result {
	t.Helper()
	ctx := context.Background()
	var out [][]Result
	for _, q := range queries {
		for _, topN := range []int{3, 0} {
			res, err := ix.Search(ctx, q, topN)
			if err != nil {
				t.Fatalf("%q: %v", q, err)
			}
			out = append(out, res)
		}
	}
	vec := make([]float64, ix.NumTerms())
	for i := range vec {
		vec[i] = float64(i%5) - 1
	}
	res, err := ix.SearchVector(ctx, vec, 5)
	if err != nil {
		t.Fatal(err)
	}
	return append(out, res)
}

// An index file opened from its path (mapped) and loaded from its bytes
// (streamed) is one index above internal/lsi: the same Save output byte
// for byte, the same results bit for bit, at one worker and at two. So is
// a checkpoint directory and the index it was saved from: the opened one
// serves its segments from mappings, answers alike and saves the same
// segment files.
func TestMappedAndStreamedOpensAgree(t *testing.T) {
	maps := mapsFiles(t)
	queries := []string{"car", "car engine repair", "telescope galaxy", "pasta sauce"}

	golden, err := os.ReadFile("testdata/index_v3.lsi")
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := Load(bytes.NewReader(golden))
	if err != nil {
		t.Fatal(err)
	}
	mapped, err := Open("testdata/index_v3.lsi")
	if err != nil {
		t.Fatal(err)
	}
	if got := mapped.Stats().MappedBytes; streamed.Stats().MappedBytes != 0 || (got != int64(len(golden))) != !maps {
		t.Fatalf("mappedBytes %d opened, %d loaded (file of %d, maps: %v)", got, streamed.Stats().MappedBytes, len(golden), maps)
	}
	if mapped.Stats().MemoryBytes != streamed.Stats().MemoryBytes {
		t.Fatalf("memoryBytes %d mapped, %d streamed: it counts every array, wherever it lives",
			mapped.Stats().MemoryBytes, streamed.Stats().MemoryBytes)
	}
	var a, b bytes.Buffer
	if err := streamed.Save(&a); err != nil {
		t.Fatal(err)
	}
	if err := mapped.Save(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) || !bytes.Equal(a.Bytes(), golden) {
		t.Fatal("mapped and streamed opens of the golden save different bytes")
	}

	docs := clusteredDocs(300, 5)
	built, err := Build(docs, WithRank(6), WithEngine(EngineRandomized), WithSeed(7), WithShards(2), WithAutoCompact(false))
	if err != nil {
		t.Fatal(err)
	}
	defer built.Close()
	if _, err := built.Add(context.Background(), docs[:20]); err != nil { // a fold-in segment per shard
		t.Fatal(err)
	}
	dir, again := t.TempDir(), t.TempDir()
	if err := built.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	opened, err := OpenDir(dir, WithAutoCompact(false))
	if err != nil {
		t.Fatal(err)
	}
	defer opened.Close()
	if got := opened.Stats().MappedBytes; (got > 0) != maps || built.Stats().MappedBytes != 0 {
		t.Fatalf("mappedBytes %d opened, %d built (maps: %v)", got, built.Stats().MappedBytes, maps)
	}
	if err := opened.SaveDir(again); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.idx"))
	if err != nil || len(segs) != 4 {
		t.Fatalf("saved segments %v, err %v", segs, err)
	}
	for _, seg := range segs {
		want, err1 := os.ReadFile(seg)
		got, err2 := os.ReadFile(filepath.Join(again, filepath.Base(seg)))
		if err1 != nil || err2 != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s saved again from its mapping differs (%v, %v)", filepath.Base(seg), err1, err2)
		}
	}
	// More documents fold in against a mapped basis like any other.
	for _, ix := range []*Index{built, opened} {
		if _, err := ix.Add(context.Background(), docs[20:30]); err != nil {
			t.Fatal(err)
		}
	}

	dirQueries := []string{"car engine", "galaxy telescope", "yeast dough oven baker"}
	for _, procs := range []int{1, 2} {
		old := par.SetMaxProcs(procs)
		if !reflect.DeepEqual(answers(t, mapped, queries), answers(t, streamed, queries)) {
			t.Errorf("MaxProcs=%d: mapped and streamed opens of the golden answer differently", procs)
		}
		if !reflect.DeepEqual(answers(t, opened, dirQueries), answers(t, built, dirQueries)) {
			t.Errorf("MaxProcs=%d: the opened directory and the index it was saved from answer differently", procs)
		}
		par.SetMaxProcs(old)
	}
}

// settleMappings collects garbage until blob.LiveMappings reads want, or
// gives up: a mapping is released by a cleanup that runs some time after
// the collection that found it unreachable.
func settleMappings(want int) int {
	for deadline := time.Now().Add(20 * time.Second); blob.LiveMappings() != want && time.Now().Before(deadline); {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	return blob.LiveMappings()
}

// Searches run on one opened index while 200 more are opened, searched
// once, dropped and collected under them: nothing faults, the answers
// never change, every dropped index's mapping is released — what keeps
// BenchmarkOpen's loop from running out of address space — and the one
// being searched keeps its mapping until it is dropped too.
func TestMappingsFollowTheirIndexes(t *testing.T) {
	if !mapsFiles(t) {
		t.Skip("index files are not mapped on this platform")
	}
	path := filepath.Join(t.TempDir(), "index.lsi")
	saveTo(t, syntheticLSI(t, 2000, 300, 16), path)
	base := settleMappings(0)

	ix, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	query := make([]float64, ix.NumTerms()) // the synthetic vocabulary is not made of words
	query[7], query[11], query[13] = 1, 2, 1
	want, err := ix.SearchVector(ctx, query, 10)
	if err != nil {
		t.Fatal(err)
	}
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
				got, err := ix.SearchVector(ctx, query, 10)
				if err != nil || !reflect.DeepEqual(got, want) {
					t.Errorf("search under reloads: %v, err %v", got, err)
					return
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		other, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := other.SearchVector(ctx, query, 10); err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("reload %d answers %v, err %v", i, got, err)
		}
		if i%8 == 0 {
			runtime.GC()
		}
	}
	if got := settleMappings(base + 1); got != base+1 {
		t.Errorf("%d mappings live with one index open, want %d", got, base+1)
	}
	close(stop)
	wg.Wait()
	if got, err := ix.SearchVector(ctx, query, 10); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("after the reloads: %v, err %v", got, err)
	}
	ix = nil
	if got := settleMappings(base); got != base {
		t.Errorf("%d mappings live after the last index was dropped, want %d", got, base)
	}
}
