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
	res, err := only(ix.Query(ctx, Query{Vector: vec, TopN: 5}))
	if err != nil {
		t.Fatal(err)
	}
	return append(out, res)
}

// An index file opened from its path (mapped) and loaded from its bytes
// (streamed) is one index above internal/lsi: the same Save output byte
// for byte — the v4 file, whichever container version was read — the same
// results bit for bit, at one worker and at two. So is a checkpoint
// directory and the index it was saved from: the opened one serves its
// segments from mappings, answers alike and saves the same segment files.
func TestMappedAndStreamedOpensAgree(t *testing.T) {
	maps := mapsFiles(t)
	queries := []string{"car", "car engine repair", "telescope galaxy", "pasta sauce"}

	v4, err := os.ReadFile("testdata/index_v4.lsi")
	if err != nil {
		t.Fatal(err)
	}
	var pairs [][2]*Index // mapped, streamed
	for _, path := range []string{"testdata/index_v3.lsi", "testdata/index_v4.lsi"} {
		golden, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		streamed, err := Load(bytes.NewReader(golden))
		if err != nil {
			t.Fatal(err)
		}
		mapped, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		// Mapped are the arrays left where they lie in the file: the basis
		// and σ, and v4's float32 documents; not the text section.
		st := streamed.Stats()
		want := 8 * int64(st.NumTerms+1) * int64(st.Rank)
		if path == "testdata/index_v4.lsi" {
			want += 4 * int64(st.NumDocs) * int64(st.Rank)
		}
		if got := mapped.Stats().MappedBytes; st.MappedBytes != 0 || (got != want) != !maps || want >= int64(len(golden)) {
			t.Fatalf("%s: mappedBytes %d opened, %d loaded, want %d of the %d-byte file (maps: %v)", path, got, st.MappedBytes, want, len(golden), maps)
		}
		if mapped.Stats().MemoryBytes != streamed.Stats().MemoryBytes {
			t.Fatalf("%s: memoryBytes %d mapped, %d streamed: it counts every array, wherever it lives",
				path, mapped.Stats().MemoryBytes, streamed.Stats().MemoryBytes)
		}
		var a, b bytes.Buffer
		if err := streamed.Save(&a); err != nil {
			t.Fatal(err)
		}
		if err := mapped.Save(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) || !bytes.Equal(a.Bytes(), v4) {
			t.Fatalf("mapped and streamed opens of %s do not both save the v4 golden", path)
		}
		pairs = append(pairs, [2]*Index{mapped, streamed})
	}

	docs := clusteredDocs(300, 5)
	built, err := Build(docs, WithRank(6), WithEngine(EngineRandomized), WithShards(2), WithAutoCompact(false))
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
		for _, p := range pairs {
			if !reflect.DeepEqual(answers(t, p[0], queries), answers(t, p[1], queries)) {
				t.Errorf("MaxProcs=%d: mapped and streamed opens of a golden answer differently", procs)
			}
		}
		if !reflect.DeepEqual(answers(t, opened, dirQueries), answers(t, built, dirQueries)) {
			t.Errorf("MaxProcs=%d: the opened directory and the index it was saved from answer differently", procs)
		}
		par.SetMaxProcs(old)
	}
}

// scoresByID runs query over every document of ix and maps each
// document's external ID to the bits of its score.
func scoresByID(t *testing.T, ix *Index, query string, into map[string]float64) {
	t.Helper()
	res, err := ix.Search(context.Background(), query, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		into[r.ID] = r.Score
	}
}

// A built index holds the float32 document matrix from the start, so the
// index in memory, the files it saves and the indexes opened from them —
// mapped — score every document bitwise alike: unsharded through Save and
// Open, and on 1 and 3 shards through SaveDir and OpenDir and through
// SaveShardDirs, whose node exports together score every document as the
// whole index does.
func TestBuildSaveOpenScoreBitwiseAlike(t *testing.T) {
	docs := clusteredDocs(480, 11)
	queries := []string{"car engine", "galaxy telescope orbit", "yeast dough oven baker", "brake comet flour"}
	opts := []Option{WithRank(6), WithEngine(EngineRandomized), WithAutoCompact(false)}

	built, err := Build(docs, opts...)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "index.lsi")
	saveTo(t, built, path)
	opened, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(answers(t, opened, queries), answers(t, built, queries)) {
		t.Fatal("the opened file and the index it was saved from answer differently")
	}

	for _, shards := range []int{1, 3} {
		built, err := Build(docs, append(opts, WithShards(shards))...)
		if err != nil {
			t.Fatal(err)
		}
		defer built.Close()
		dir, nodes := t.TempDir(), t.TempDir()
		if err := built.SaveDir(dir); err != nil {
			t.Fatal(err)
		}
		if err := built.SaveShardDirs(nodes); err != nil {
			t.Fatal(err)
		}
		opened, err := OpenDir(dir, opts...)
		if err != nil {
			t.Fatal(err)
		}
		defer opened.Close()
		if !reflect.DeepEqual(answers(t, opened, queries), answers(t, built, queries)) {
			t.Fatalf("%d shards: the opened directory and the index it was saved from answer differently", shards)
		}
		for _, q := range queries {
			want, got := map[string]float64{}, map[string]float64{}
			scoresByID(t, built, q, want)
			for s := 0; s < shards; s++ {
				node, err := OpenDir(shardDirName(nodes, s), opts...)
				if err != nil {
					t.Fatal(err)
				}
				scoresByID(t, node, q, got)
				node.Close()
			}
			if len(want) != len(docs) || !reflect.DeepEqual(got, want) {
				t.Fatalf("%d shards, %q: the node exports score %d documents differently from the index's %d",
					shards, q, len(got), len(want))
			}
		}
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
	want, err := only(ix.Query(ctx, Query{Vector: query, TopN: 10}))
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
				got, err := only(ix.Query(ctx, Query{Vector: query, TopN: 10}))
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
		if got, err := only(other.Query(ctx, Query{Vector: query, TopN: 10})); err != nil || !reflect.DeepEqual(got, want) {
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
	if got, err := only(ix.Query(ctx, Query{Vector: query, TopN: 10})); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("after the reloads: %v, err %v", got, err)
	}
	ix = nil
	if got := settleMappings(base); got != base {
		t.Errorf("%d mappings live after the last index was dropped, want %d", got, base)
	}
}
