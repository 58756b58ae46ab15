package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/retrieval"
	"repro/retrieval/httpapi"
)

// TestEndToEndServe builds a demo index, starts the daemon on a random
// port, and round-trips searches over real HTTP — the full lsiserve path
// minus only signal handling.
func TestEndToEndServe(t *testing.T) {
	cfg, err := parseFlags([]string{"-k", "3"}, os.Stderr)
	if err != nil {
		t.Fatal(err)
	}
	ret, err := newRetriever(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var out bytes.Buffer
	served := make(chan error, 1)
	go func() {
		api := httpapi.NewHandler(ret, httpapi.Options{})
		served <- serve(ctx, ln, api, api, 5*time.Second, &out)
	}()
	base := fmt.Sprintf("http://%s", ln.Addr())

	// Liveness.
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}

	// Text search round trip: the synonymy effect over the wire.
	body := strings.NewReader(`{"query":"car engine","topN":4}`)
	resp, err = http.Post(base+"/v1/search", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	var sr httpapi.SearchResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 || len(sr.Results) != 4 {
		t.Fatalf("search status %d results %+v", resp.StatusCode, sr.Results)
	}
	seen := map[string]bool{}
	for _, r := range sr.Results {
		seen[r.ID] = true
	}
	if !seen["demo-01"] || !seen["demo-02"] {
		t.Fatalf("synonym documents missing over HTTP: %+v", sr.Results)
	}

	// Batch endpoint.
	resp, err = http.Post(base+"/v1/search:batch", "application/json",
		strings.NewReader(`{"queries":["galaxy","pasta"],"topN":2}`))
	if err != nil {
		t.Fatal(err)
	}
	var br httpapi.BatchSearchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 || len(br.Results) != 2 {
		t.Fatalf("batch status %d results %+v", resp.StatusCode, br.Results)
	}

	// Stats.
	resp, err = http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats retrieval.Stats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.NumDocs != 12 || stats.Backend != "lsi" || stats.Rank != 3 {
		t.Fatalf("stats = %+v", stats)
	}

	// Graceful shutdown: cancel drains and serve returns cleanly.
	cancel()
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("serve returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serve did not shut down")
	}
	if !strings.Contains(out.String(), "listening on http://") {
		t.Fatalf("missing listen line in output: %q", out.String())
	}
}

// TestServeSavedIndex proves the persistence path end to end: save a
// self-contained index, reload it via -index, and serve text queries
// from it without the corpus.
func TestServeSavedIndex(t *testing.T) {
	ix, err := retrieval.Build(retrieval.DemoCorpus(),
		retrieval.WithRank(3), retrieval.WithEngine(retrieval.EngineDense))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "demo.idx")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	cfg, err := parseFlags([]string{"-index", path}, os.Stderr)
	if err != nil {
		t.Fatal(err)
	}
	ret, err := newRetriever(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ret.Search(context.Background(), "automobile mechanic", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 || !strings.HasPrefix(res[0].ID, "demo-") {
		t.Fatalf("loaded index results: %+v", res)
	}
}

// TestRunWarnsOnVocabularylessIndex points the full run() path at the
// golden v1 index file, which has no vocabulary: the daemon must refuse
// to boot with an error that names the converter, rather than come up
// looking healthy and fail every text search.
func TestRunWarnsOnVocabularylessIndex(t *testing.T) {
	var stdout, stderr syncBuffer
	err := run(context.Background(), []string{"-index", "../../retrieval/testdata/index_v1.gob", "-addr", "127.0.0.1:0"}, &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), "lsiquery -upgrade") {
		t.Fatalf("run on a v1 index: %v, want an error naming lsiquery -upgrade", err)
	}
	if strings.Contains(stdout.String(), "listening on") {
		t.Fatalf("the daemon came up on a v1 index; stdout: %s", stdout.String())
	}
}

// TestEndToEndServeVSM boots run() with -backend vsm and drives the
// read-only baseline over HTTP: literal-match search, the backend in
// /v1/stats, and 501 for live appends.
func TestEndToEndServeVSM(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var stdout, stderr syncBuffer
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-backend", "vsm", "-addr", "127.0.0.1:0"}, &stdout, &stderr)
	}()
	deadline := time.After(10 * time.Second)
	var base string
	for base == "" {
		select {
		case err := <-done:
			t.Fatalf("run exited early: %v (stderr: %s)", err, stderr.String())
		case <-deadline:
			t.Fatalf("daemon never came up; stdout: %s", stdout.String())
		case <-time.After(10 * time.Millisecond):
		}
		if _, after, ok := strings.Cut(stdout.String(), "listening on "); ok {
			base = strings.TrimSpace(after)
		}
	}
	if !strings.Contains(stdout.String(), "lsiserve: vsm index, 12 documents") {
		t.Fatalf("boot line: %q", stdout.String())
	}

	resp, err := http.Post(base+"/v1/search", "application/json", strings.NewReader(`{"query":"car","topN":4}`))
	if err != nil {
		t.Fatal(err)
	}
	var sr httpapi.SearchResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	// Literal matching: only the two documents that say "car".
	if resp.StatusCode != 200 || len(sr.Results) != 2 || sr.Results[0].ID != "demo-00" || sr.Results[1].ID != "demo-03" {
		t.Fatalf("search status %d results %+v", resp.StatusCode, sr.Results)
	}

	resp, err = http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats retrieval.Stats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Backend != "vsm" || stats.NumDocs != 12 || stats.Rank != 0 || stats.Cache != nil {
		t.Fatalf("stats = %+v", stats)
	}

	resp, err = http.Post(base+"/v1/docs", "application/json", strings.NewReader(`{"text":"a car"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("POST /v1/docs = %d, want 501", resp.StatusCode)
	}

	cancel()
	if err := <-done; err != nil {
		t.Fatalf("run: %v", err)
	}
}

// syncBuffer is a mutex-guarded bytes.Buffer: run() writes from the
// daemon goroutine while the test polls String().
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func TestParseFlagErrors(t *testing.T) {
	var stderr bytes.Buffer
	cfg, err := parseFlags([]string{"-backend", "nope"}, &stderr)
	if err != nil {
		t.Fatal(err) // flag parsing succeeds; the backend is validated at build
	}
	if _, err := newRetriever(cfg); err == nil {
		t.Fatal("unknown backend should fail")
	}
	cfg, err = parseFlags([]string{"-weighting", "nope"}, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := newRetriever(cfg); err == nil {
		t.Fatal("unknown weighting should fail")
	}
	if _, err := parseFlags([]string{"-no-such-flag"}, &stderr); err == nil {
		t.Fatal("unknown flag should fail")
	}
	// -index fixes backend/rank/weighting at build time; combining it
	// with build flags or corpus files must be rejected, not ignored.
	if _, err := parseFlags([]string{"-index", "x.idx", "-backend", "vsm"}, &stderr); err == nil {
		t.Fatal("-index with -backend should fail")
	}
	if _, err := parseFlags([]string{"-index", "x.idx", "doc.txt"}, &stderr); err == nil {
		t.Fatal("-index with file arguments should fail")
	}
	if _, err := parseFlags([]string{"-index", "x.idx", "-addr", ":0"}, &stderr); err != nil {
		t.Fatalf("-index with serving flags should be fine: %v", err)
	}
	// A flag of one serving mode is refused outside it, not ignored.
	for _, args := range [][]string{
		{"-data-dir", "d"},
		{"-index", "x.idx", "-data-dir", "d"},
		{"-probe-every", "1s"},
		{"-breaker-open-for", "1s"},
		{"-index", "x.idx", "-probe-every", "1s"},
		{"-index", "x.idx", "-breaker-open-for", "1s"},
		{"-replica-of", "http://x", "-probe-every", "1s"},
		{"-replica-of", "http://x", "-breaker-open-for", "1s"},
	} {
		if _, err := parseFlags(args, &stderr); err == nil {
			t.Errorf("parseFlags(%v) should fail", args)
		}
	}
	if _, err := parseFlags([]string{"-cluster", "m.json", "-probe-every", "500ms", "-breaker-open-for", "1s"}, &stderr); err != nil {
		t.Fatalf("-cluster with the router flags should be fine: %v", err)
	}
}

// TestEndToEndServeSharded boots the daemon with -shards, appends a
// document over HTTP, searches for it, and checks /readyz — the full
// sharded live-serving path.
func TestEndToEndServeSharded(t *testing.T) {
	cfg, err := parseFlags([]string{"-k", "3", "-shards", "2"}, os.Stderr)
	if err != nil {
		t.Fatal(err)
	}
	ret, err := newRetriever(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ret.Close()
	if !ret.Sharded() {
		t.Fatal("-shards did not produce a sharded index")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var out bytes.Buffer
	served := make(chan error, 1)
	go func() {
		api := httpapi.NewHandler(ret, httpapi.Options{})
		served <- serve(ctx, ln, api, api, 5*time.Second, &out)
	}()
	base := fmt.Sprintf("http://%s", ln.Addr())

	get := func(path string) int {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := get("/readyz"); code != 200 {
		t.Fatalf("/readyz = %d", code)
	}

	body := strings.NewReader(`{"id":"live-1","text":"a turbocharged car engine"}`)
	resp, err := http.Post(base+"/v1/docs", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	var added httpapi.AddDocsResponse
	if err := json.NewDecoder(resp.Body).Decode(&added); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 || added.Count != 1 {
		t.Fatalf("append: %d %+v", resp.StatusCode, added)
	}

	resp, err = http.Post(base+"/v1/search", "application/json",
		strings.NewReader(`{"query":"turbocharged engine","topN":20}`))
	if err != nil {
		t.Fatal(err)
	}
	var sr httpapi.SearchResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	found := false
	for _, r := range sr.Results {
		if r.ID == "live-1" {
			found = true
		}
	}
	if !found {
		t.Fatalf("appended doc missing from search results: %+v", sr.Results)
	}

	cancel()
	if err := <-served; err != nil {
		t.Fatal(err)
	}
}

// TestServeSavedShardedDir saves a sharded index directory and serves it
// via -index, exercising retrieval.Open's directory path end to end.
func TestServeSavedShardedDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "sharded-idx")
	ix, err := retrieval.Build(retrieval.DemoCorpus(),
		retrieval.WithRank(3), retrieval.WithShards(2), retrieval.WithAutoCompact(false))
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	if err := ix.SaveDir(dir); err != nil {
		t.Fatal(err)
	}

	cfg, err := parseFlags([]string{"-index", dir}, os.Stderr)
	if err != nil {
		t.Fatal(err)
	}
	ret, err := newRetriever(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ret.Close()
	if !ret.Sharded() || ret.NumDocs() != ix.NumDocs() {
		t.Fatalf("served index: sharded=%v docs=%d", ret.Sharded(), ret.NumDocs())
	}
	res, err := ret.Search(context.Background(), "car", 3)
	if err != nil || len(res) == 0 {
		t.Fatalf("search on served dir index: %v, %d results", err, len(res))
	}
}

// TestServingRuntimeSettings pins what serving sets in the Go runtime: the
// GC percent is servingGCPercent while run serves and the caller's again
// once it returns, and heap profiles are sampled only under -pprof, where
// /debug/pprof/heap still returns samples.
func TestServingRuntimeSettings(t *testing.T) {
	gcPercent := func() uint64 {
		s := []metrics.Sample{{Name: "/gc/gogc:percent"}}
		metrics.Read(s)
		return s[0].Value.Uint64()
	}
	gc, rate := gcPercent(), runtime.MemProfileRate
	if gc == servingGCPercent || rate == 0 {
		t.Fatalf("test process already runs at GC percent %d, heap-profile rate %d", gc, rate)
	}
	for _, pprof := range []bool{false, true} {
		t.Run(fmt.Sprintf("pprof=%v", pprof), func(t *testing.T) {
			args, wantRate := []string{"-k", "3"}, 0
			if pprof {
				args, wantRate = append(args, "-pprof"), rate
			}
			base := daemon(t, args...)
			if got := gcPercent(); got != servingGCPercent {
				t.Errorf("GC percent while serving = %d, want %d", got, servingGCPercent)
			}
			if runtime.MemProfileRate != wantRate {
				t.Errorf("heap-profile rate while serving = %d, want %d", runtime.MemProfileRate, wantRate)
			}
			if !pprof {
				return
			}
			resp, err := http.Get(base + "/debug/pprof/heap?debug=1&gc=1")
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var inUse, inUseB, allocs, allocB, sampling int
			if _, err := fmt.Fscanf(resp.Body, "heap profile: %d: %d [%d: %d] @ heap/%d", &inUse, &inUseB, &allocs, &allocB, &sampling); err != nil {
				t.Fatalf("heap profile header: %v", err)
			}
			if allocs == 0 || sampling != 2*rate {
				t.Errorf("heap profile holds %d sampled allocations at heap/%d, want some at heap/%d", allocs, sampling, 2*rate)
			}
		})
		if got := gcPercent(); got != gc {
			t.Errorf("GC percent after run returned = %d, want %d", got, gc)
		}
		if runtime.MemProfileRate != rate {
			t.Errorf("heap-profile rate after run returned = %d, want %d", runtime.MemProfileRate, rate)
		}
	}
}
