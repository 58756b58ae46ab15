package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/retrieval"
)

// TestMetricsEndpoint drives a sharded, cached handler through
// searches and an ingest, then asserts GET /metrics carries every
// series family the acceptance criteria name: query latency
// histograms, cache hit/coalesce counters, compaction debt, and
// per-shard segment counts — in valid exposition shape.
func TestMetricsEndpoint(t *testing.T) {
	ix, err := retrieval.Build(retrieval.DemoCorpus(),
		retrieval.WithRank(3), retrieval.WithShards(2),
		retrieval.WithAutoCompact(false), retrieval.WithQueryCache(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	h := NewHandler(ix, Options{})

	// Two identical searches: a miss then a hit.
	for i := 0; i < 2; i++ {
		if rec := do(t, h, "POST", "/v1/search", `{"query":"car engine","topN":3}`); rec.Code != 200 {
			t.Fatalf("search %d: status %d: %s", i, rec.Code, rec.Body)
		}
	}
	if rec := do(t, h, "POST", "/v1/docs", `{"id":"new","text":"car engine turbo"}`); rec.Code != 200 {
		t.Fatalf("docs: status %d: %s", rec.Code, rec.Body)
	}

	rec := do(t, h, "GET", "/metrics", "")
	if rec.Code != 200 {
		t.Fatalf("/metrics status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type %q, want text/plain exposition", ct)
	}
	body := rec.Body.String()
	for _, want := range []string{
		`lsi_http_request_duration_seconds_bucket{route="search",le="+Inf"} 2`,
		`lsi_http_requests_total{code="200",route="search"} 2`,
		`lsi_http_requests_total{code="200",route="docs"} 1`,
		"# TYPE lsi_http_request_duration_seconds histogram",
		`lsi_cache_lookups_total{result="hit"} 1`,
		`lsi_cache_lookups_total{result="miss"} 1`,
		// The hit promoted the one entry out of probation; nothing was
		// evicted by either bound.
		"lsi_cache_evictions_total 0",
		"lsi_cache_probation_evictions_total 0",
		"lsi_cache_probation_bytes 0",
		"lsi_cache_entries 1",
		"lsi_index_compaction_debt ",
		"lsi_index_docs_ingested_total 1",
		"lsi_index_epoch 1",
		"lsi_index_epoch_age_seconds ",
		`lsi_shard_segments{shard="0",state="live"}`,
		`lsi_shard_segments{shard="1",state="compacted"} 1`,
		"lsi_index_docs 13",
		// The scrape itself is admitted and in flight while rendering.
		"lsi_http_inflight_requests 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// The scrape itself is instrumented on the next scrape.
	body2 := do(t, h, "GET", "/metrics", "").Body.String()
	if !strings.Contains(body2, `lsi_http_requests_total{code="200",route="metrics"} 1`) {
		t.Errorf("second scrape does not count the first: %s", body2)
	}
}

// TestConcurrentScrapes: scrapes take their Stats snapshot while other
// scrapes, searches and appends run; under -race this pins that the
// snapshot is shared safely.
func TestConcurrentScrapes(t *testing.T) {
	ix, err := retrieval.Build(retrieval.DemoCorpus(),
		retrieval.WithRank(3), retrieval.WithShards(2), retrieval.WithQueryCache(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	h := NewHandler(ix, Options{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				var rec *httptest.ResponseRecorder
				switch w {
				case 0:
					rec = do(t, h, "POST", "/v1/docs", `{"text":"car engine turbo"}`)
				case 1:
					rec = do(t, h, "POST", "/v1/search", `{"query":"car engine","topN":3}`)
				default:
					rec = do(t, h, "GET", "/metrics", "")
					if !strings.Contains(rec.Body.String(), `lsi_shard_docs{shard="1"} `) {
						t.Errorf("scrape %d lacks the per-shard series", i)
					}
				}
				if rec.Code != 200 {
					t.Errorf("worker %d request %d: status %d", w, i, rec.Code)
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestMetricsUncachedUnsharded: an immutable, uncached index exports no
// cache or live-index families, but the HTTP families are all there.
func TestMetricsUncachedUnsharded(t *testing.T) {
	h := demoHandler(t, Options{})
	body := do(t, h, "GET", "/metrics", "").Body.String()
	for _, absent := range []string{"lsi_cache_", "lsi_shard_", "lsi_index_epoch"} {
		if strings.Contains(body, absent) {
			t.Errorf("/metrics of immutable index carries %q", absent)
		}
	}
	for _, want := range []string{"lsi_index_docs ", "lsi_index_memory_bytes ", "lsi_http_request_duration_seconds"} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestMappedIndexIsReported: an index opened from a file reports the
// bytes it serves from the mapping — in /v1/stats beside memoryBytes and
// as gauges — and a built one reports none.
func TestMappedIndexIsReported(t *testing.T) {
	ix, err := retrieval.Open("../testdata/index_v3.lsi")
	if err != nil {
		t.Fatal(err)
	}
	mapped := ix.Stats().MappedBytes
	if mapped == 0 {
		t.Skip("index files are not mapped on this platform")
	}
	for h, want := range map[http.Handler]int64{NewHandler(ix, Options{}): mapped, demoHandler(t, Options{}): 0} {
		if body := do(t, h, "GET", "/v1/stats", "").Body.String(); !strings.Contains(body, fmt.Sprintf(`"mappedBytes":%d,`, want)) {
			t.Errorf("/v1/stats of an index mapping %d bytes: %s", want, body)
		}
		body := do(t, h, "GET", "/metrics", "").Body.String()
		if !strings.Contains(body, fmt.Sprintf("lsi_index_mapped_bytes %d\n", want)) || !strings.Contains(body, "\nlsi_index_mappings ") || strings.Contains(body, "\nlsi_index_mappings 0\n") {
			t.Errorf("/metrics of an index mapping %d bytes: %s", want, body)
		}
	}
	runtime.KeepAlive(ix) // lsi_index_mappings counts the process: one is live while both scrapes run
}

// blockingRet is a Retriever whose Search blocks until released — the
// synthetic overload for the shed tests.
type blockingRet struct {
	started chan struct{} // receives one value per Search that began
	release chan struct{} // each Search consumes one value to finish
}

func (b *blockingRet) Query(ctx context.Context, q retrieval.Query) (retrieval.Answer, error) {
	out := make([][]retrieval.Result, len(q.Texts))
	for i := range q.Texts {
		b.started <- struct{}{}
		select {
		case <-b.release:
			out[i] = []retrieval.Result{{Doc: 0, ID: "d", Score: 1}}
		case <-ctx.Done():
			return retrieval.Answer{}, ctx.Err()
		}
	}
	return retrieval.Answer{Results: out}, nil
}

func (b *blockingRet) NumDocs() int { return 1 }
func (b *blockingRet) Stats() retrieval.Stats {
	return retrieval.Stats{Backend: "fake", NumDocs: 1, Ready: true}
}

// TestShedQueueFull pins the 429 contract: with MaxInFlight=1 and
// MaxQueue=1, a third concurrent search is shed immediately with
// Retry-After while the first two complete normally.
func TestShedQueueFull(t *testing.T) {
	ret := &blockingRet{started: make(chan struct{}, 4), release: make(chan struct{})}
	h := NewHandler(ret, Options{MaxInFlight: 1, MaxQueue: 1})

	results := make(chan *httptest.ResponseRecorder, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results <- do(t, h, "POST", "/v1/search", `{"query":"x"}`)
		}()
	}
	<-ret.started // request A is executing; B is queued or about to be

	// Wait until B actually occupies the queue slot (visible on the
	// never-shed /metrics route), then C is shed deterministically.
	deadline := time.Now().Add(5 * time.Second)
	for !strings.Contains(do(t, h, "GET", "/metrics", "").Body.String(), "lsi_http_queued_requests 1") {
		if time.Now().After(deadline) {
			t.Fatal("second request never reached the wait queue")
		}
		time.Sleep(time.Millisecond)
	}
	shed := do(t, h, "POST", "/v1/search", `{"query":"x"}`)
	if shed.Code != http.StatusTooManyRequests {
		t.Fatalf("expected 429, got %d: %s", shed.Code, shed.Body)
	}
	if ra := shed.Header().Get("Retry-After"); ra == "" {
		t.Error("shed response missing Retry-After")
	}
	if !strings.Contains(shed.Body.String(), "overloaded") {
		t.Errorf("shed body: %s", shed.Body)
	}

	close(ret.release) // let A and B finish
	wg.Wait()
	close(results)
	for rec := range results {
		if rec.Code != 200 {
			t.Errorf("admitted request got %d: %s", rec.Code, rec.Body)
		}
	}

	// The shed is visible on /metrics and never hits the backend.
	body := do(t, h, "GET", "/metrics", "").Body.String()
	if !strings.Contains(body, `lsi_http_shed_total{reason="queue_full",route="search"} 1`) {
		t.Errorf("/metrics missing shed counter:\n%s", body)
	}
	if !strings.Contains(body, `lsi_http_requests_total{code="429",route="search"} 1`) {
		t.Errorf("/metrics missing 429 request counter")
	}
}

// debtRet reports fixed compaction debt, and three failed passes behind it.
type debtRet struct {
	blockingRet
	debt int
}

func (d *debtRet) Stats() retrieval.Stats {
	return retrieval.Stats{Backend: "fake", NumDocs: 1, SealedPending: d.debt, CompactionFailures: 3,
		Live: &retrieval.LiveStats{LastMutation: time.Now()}}
}

// TestShedCompactionDebt: ingest routes shed 503 on debt (the server
// owes background work — distinct from the queue-full 429), search
// routes do not shed.
func TestShedCompactionDebt(t *testing.T) {
	ret := &debtRet{
		blockingRet: blockingRet{started: make(chan struct{}, 1), release: make(chan struct{}, 1)},
		debt:        10,
	}
	h := NewHandler(ret, Options{MaxCompactionDebt: 5})

	rec := do(t, h, "POST", "/v1/docs", `{"text":"x"}`)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("docs with debt: status %d, want 503: %s", rec.Code, rec.Body)
	}
	if ra := rec.Header().Get("Retry-After"); ra != "2" {
		t.Errorf("Retry-After %q, want \"2\"", ra)
	}
	if !strings.Contains(rec.Body.String(), "compaction_debt") {
		t.Errorf("shed body: %s", rec.Body)
	}

	// Why the debt does not drain is one scrape away.
	if body := do(t, h, "GET", "/metrics", "").Body.String(); !strings.Contains(body, "lsi_index_compaction_failures_total 3\n") {
		t.Errorf("/metrics missing the compaction failure counter:\n%s", body)
	}

	// Searches keep flowing under debt.
	ret.release <- struct{}{}
	if rec := do(t, h, "POST", "/v1/search", `{"query":"x"}`); rec.Code != 200 {
		t.Errorf("search under debt: status %d, want 200", rec.Code)
	}

	// Debt below the budget admits ingest again (the fake is not Live,
	// so admission surfaces as 501, not 429).
	ret.debt = 3
	if rec := do(t, h, "POST", "/v1/docs", `{"text":"x"}`); rec.Code != http.StatusNotImplemented {
		t.Errorf("docs under low debt: status %d, want 501", rec.Code)
	}
}

// TestDegradationUnderOverload floods a small sharded live index
// through a gated handler with concurrent searches and ingests. Every
// response must be a clean 200 or a clean 429 — accepted queries return
// well-formed, correctly ordered results while the gate sheds around
// them. Run under -race (the package race gate) this is the
// graceful-degradation proof: shedding corrupts no in-flight query.
func TestDegradationUnderOverload(t *testing.T) {
	ix, err := retrieval.Build(retrieval.DemoCorpus(),
		retrieval.WithRank(3), retrieval.WithShards(2),
		retrieval.WithSealEvery(8), retrieval.WithAutoCompact(false),
		retrieval.WithQueryCache(1<<18))
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	// slowRet adds a scheduling point per search so the gate saturates
	// on a 1-core runner too.
	h := NewHandler(&slowRet{Index: ix}, Options{MaxInFlight: 1, MaxQueue: 1, Timeout: 5 * time.Second})

	const workers, perWorker = 8, 20
	var ok200, shed429 int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if w%4 == 0 && i%5 == 0 {
					body := fmt.Sprintf(`{"id":"w%d-%d","text":"car engine turbo speed"}`, w, i)
					rec := do(t, h, "POST", "/v1/docs", body)
					if rec.Code != 200 && rec.Code != 429 {
						t.Errorf("ingest: status %d: %s", rec.Code, rec.Body)
					}
					continue
				}
				rec := do(t, h, "POST", "/v1/search", `{"query":"car engine","topN":5}`)
				switch rec.Code {
				case 200:
					var resp SearchResponse
					if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
						t.Errorf("accepted search returned malformed JSON: %v", err)
						continue
					}
					for j := 1; j < len(resp.Results); j++ {
						if resp.Results[j].Score > resp.Results[j-1].Score {
							t.Errorf("accepted search results out of order: %v", resp.Results)
							break
						}
					}
					for _, r := range resp.Results {
						if r.ID == "" {
							t.Errorf("result with empty ID: %+v", r)
						}
					}
					mu.Lock()
					ok200++
					mu.Unlock()
				case 429:
					if rec.Header().Get("Retry-After") == "" {
						t.Error("429 without Retry-After")
					}
					mu.Lock()
					shed429++
					mu.Unlock()
				default:
					t.Errorf("search: status %d: %s", rec.Code, rec.Body)
				}
			}
		}(w)
	}
	wg.Wait()
	if ok200 == 0 {
		t.Error("overload admitted nothing — gate wedged")
	}
	t.Logf("degradation: %d served, %d shed", ok200, shed429)
}

// slowRet delegates to a real index with a deliberate scheduling point,
// so concurrent load actually overlaps on single-CPU test runners. Every
// search route is one Query call, so that is the method to slow down.
type slowRet struct {
	*retrieval.Index
}

func (s *slowRet) Query(ctx context.Context, q retrieval.Query) (retrieval.Answer, error) {
	time.Sleep(200 * time.Microsecond)
	return s.Index.Query(ctx, q)
}

// TestPprofGating: off by default, mounted with EnablePprof.
func TestPprofGating(t *testing.T) {
	off := demoHandler(t, Options{})
	if rec := do(t, off, "GET", "/debug/pprof/cmdline", ""); rec.Code != 404 {
		t.Errorf("pprof off: status %d, want 404", rec.Code)
	}
	on := demoHandler(t, Options{EnablePprof: true})
	if rec := do(t, on, "GET", "/debug/pprof/cmdline", ""); rec.Code != 200 {
		t.Errorf("pprof on: status %d, want 200", rec.Code)
	}
}

// TestAccessLog: one structured line per request with route, status,
// and cache disposition.
func TestAccessLog(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&buf, nil))
	ix, err := retrieval.Build(retrieval.DemoCorpus(),
		retrieval.WithRank(3), retrieval.WithQueryCache(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	h := NewHandler(ix, Options{AccessLog: logger})
	do(t, h, "POST", "/v1/search", `{"query":"car engine"}`)
	line := buf.String()
	for _, want := range []string{`"route":"search"`, `"status":200`, `"cache":"miss"`, `"dur_ms":`} {
		if !strings.Contains(line, want) {
			t.Errorf("access log missing %s in: %s", want, line)
		}
	}
}
