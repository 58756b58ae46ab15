package httpapi

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/retrieval"
)

func demoHandler(t *testing.T, opts Options) http.Handler {
	t.Helper()
	ix, err := retrieval.Build(retrieval.DemoCorpus(),
		retrieval.WithRank(3), retrieval.WithEngine(retrieval.EngineDense))
	if err != nil {
		t.Fatal(err)
	}
	return NewHandler(ix, opts)
}

func do(t *testing.T, h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	var req *http.Request
	if body == "" {
		req = httptest.NewRequest(method, path, nil)
	} else {
		req = httptest.NewRequest(method, path, strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// batchBody is a batch request whose key lists n copies of item.
func batchBody(key, item string, n int) string {
	return `{"` + key + `":[` + strings.TrimSuffix(strings.Repeat(item+",", n), ",") + `]}`
}

func TestHandlerTable(t *testing.T) {
	h := demoHandler(t, Options{MaxTopN: 5})
	ix, _ := retrieval.Build(retrieval.DemoCorpus(), retrieval.WithRank(3))
	wrongLen := make([]float64, ix.NumTerms()+7)
	wrongLenBody, _ := json.Marshal(SearchRequest{Vector: wrongLen, TopN: 3})

	cases := []struct {
		name       string
		method     string
		path       string
		body       string
		wantStatus int
		wantInBody string
	}{
		{"health", "GET", "/healthz", "", 200, `"status":"ok"`},
		{"stats", "GET", "/v1/stats", "", 200, `"backend":"lsi"`},
		{"search ok", "POST", "/v1/search", `{"query":"car engine","topN":3}`, 200, `"results"`},
		{"search default topN", "POST", "/v1/search", `{"query":"car"}`, 200, `"results"`},
		{"search bad json", "POST", "/v1/search", `{"query": car}`, 400, "invalid JSON"},
		{"search truncated json", "POST", "/v1/search", `{"query":"car"`, 400, "invalid JSON"},
		{"search no query or vector", "POST", "/v1/search", `{"topN":3}`, 400, "exactly one"},
		{"search both query and vector", "POST", "/v1/search", `{"query":"car","vector":[1,2],"topN":3}`, 400, "exactly one"},
		{"search negative topN", "POST", "/v1/search", `{"query":"car","topN":-2}`, 400, "topN"},
		{"search wrong vector length", "POST", "/v1/search", string(wrongLenBody), 400, "vector length"},
		{"search unknown vocab is empty not error", "POST", "/v1/search", `{"query":"zzzunknownzzz"}`, 200, `"results":[]`},
		{"search wrong method", "GET", "/v1/search", "", 405, ""},
		{"batch ok", "POST", "/v1/search:batch", `{"queries":["car","galaxy"],"topN":2}`, 200, `"results"`},
		{"batch empty", "POST", "/v1/search:batch", `{"queries":[]}`, 400, "at least one"},
		{"batch too large", "POST", "/v1/search:batch", batchBody("queries", `"a"`, maxBatch+1), 400, "exceeds the limit"},
		{"batch bad json", "POST", "/v1/search:batch", `[]`, 400, "invalid JSON"},
		{"batch negative topN", "POST", "/v1/search:batch", `{"queries":["car"],"topN":-1}`, 400, "topN"},
		{"unknown path", "GET", "/v1/nope", "", 404, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := do(t, h, tc.method, tc.path, tc.body)
			if rec.Code != tc.wantStatus {
				t.Fatalf("status %d, want %d; body: %s", rec.Code, tc.wantStatus, rec.Body)
			}
			if tc.wantInBody != "" && !strings.Contains(rec.Body.String(), tc.wantInBody) {
				t.Fatalf("body %q does not contain %q", rec.Body, tc.wantInBody)
			}
		})
	}
}

func TestSearchResultShape(t *testing.T) {
	h := demoHandler(t, Options{})
	rec := do(t, h, "POST", "/v1/search", `{"query":"car","topN":4}`)
	if rec.Code != 200 {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var resp SearchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 4 {
		t.Fatalf("got %d results, want 4", len(resp.Results))
	}
	// The synonymy effect survives the HTTP round trip: the
	// "automobile" documents rank for a "car" query.
	seen := map[string]bool{}
	for _, r := range resp.Results {
		seen[r.ID] = true
		if r.Score <= 0 {
			t.Fatalf("non-positive score in %+v", r)
		}
	}
	if !seen["demo-01"] || !seen["demo-02"] {
		t.Fatalf("synonym documents missing from %+v", resp.Results)
	}
}

func TestTopNClamping(t *testing.T) {
	h := demoHandler(t, Options{MaxTopN: 2})
	rec := do(t, h, "POST", "/v1/search", `{"query":"car","topN":50}`)
	var resp SearchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 2 {
		t.Fatalf("topN not clamped to MaxTopN: %d results", len(resp.Results))
	}
}

func TestBatchAlignment(t *testing.T) {
	h := demoHandler(t, Options{})
	rec := do(t, h, "POST", "/v1/search:batch",
		`{"queries":["pasta garlic","zzzunknownzzz","galaxy"],"topN":2}`)
	if rec.Code != 200 {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var resp BatchSearchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 3 {
		t.Fatalf("got %d result sets, want 3", len(resp.Results))
	}
	if len(resp.Results[0]) != 2 || len(resp.Results[2]) != 2 {
		t.Fatalf("known queries should each have 2 results: %+v", resp.Results)
	}
	if len(resp.Results[1]) != 0 {
		t.Fatalf("unknown-vocabulary query should have empty results: %+v", resp.Results[1])
	}
}

func TestRequestTimeout(t *testing.T) {
	// A 1ns budget expires before the search starts; the handler must
	// answer 504, not hang or 500.
	h := demoHandler(t, Options{Timeout: time.Nanosecond})
	rec := do(t, h, "POST", "/v1/search", `{"query":"car","topN":3}`)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504; body: %s", rec.Code, rec.Body)
	}
}

func TestStatsBody(t *testing.T) {
	h := demoHandler(t, Options{})
	rec := do(t, h, "GET", "/v1/stats", "")
	var s retrieval.Stats
	if err := json.Unmarshal(rec.Body.Bytes(), &s); err != nil {
		t.Fatal(err)
	}
	if s.Backend != "lsi" || s.NumDocs != 12 || s.Rank != 3 || s.VocabSize != s.NumTerms {
		t.Fatalf("stats = %+v", s)
	}
}

func TestVectorSearch(t *testing.T) {
	ix, err := retrieval.Build(retrieval.DemoCorpus(),
		retrieval.WithRank(3), retrieval.WithEngine(retrieval.EngineDense))
	if err != nil {
		t.Fatal(err)
	}
	h := NewHandler(ix, Options{})
	vec := make([]float64, ix.NumTerms())
	vec[0] = 1 // first vocabulary term ("car")
	body, _ := json.Marshal(SearchRequest{Vector: vec, TopN: 3})
	rec := do(t, h, "POST", "/v1/search", string(body))
	if rec.Code != 200 {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var resp SearchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 3 {
		t.Fatalf("got %d results, want 3: %s", len(resp.Results), rec.Body)
	}
}

func BenchmarkSearchHandler(b *testing.B) {
	ix, err := retrieval.Build(retrieval.DemoCorpus(), retrieval.WithRank(3))
	if err != nil {
		b.Fatal(err)
	}
	h := NewHandler(ix, Options{})
	body := `{"query":"car engine","topN":5}`
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest("POST", "/v1/search", strings.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != 200 {
			b.Fatalf("status %d", rec.Code)
		}
	}
}

func shardedHandler(t *testing.T) (http.Handler, *retrieval.Index) {
	t.Helper()
	ix, err := retrieval.Build(retrieval.DemoCorpus(),
		retrieval.WithRank(3), retrieval.WithShards(2),
		retrieval.WithAutoCompact(false), retrieval.WithSealEvery(4))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ix.Close() })
	return NewHandler(ix, Options{}), ix
}

func TestLiveDocsEndpoints(t *testing.T) {
	h, ix := shardedHandler(t)
	before := ix.NumDocs()

	rec := do(t, h, "POST", "/v1/docs", `{"id":"fresh","text":"a fresh car with a diesel engine"}`)
	if rec.Code != 200 {
		t.Fatalf("POST /v1/docs = %d: %s", rec.Code, rec.Body)
	}
	var resp AddDocsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.First != before || resp.Count != 1 {
		t.Fatalf("append response %+v, want first=%d count=1", resp, before)
	}

	rec = do(t, h, "POST", "/v1/docs:batch", `{"docs":[{"text":"galaxy survey"},{"id":"p","text":"pasta recipe"}]}`)
	if rec.Code != 200 {
		t.Fatalf("POST /v1/docs:batch = %d: %s", rec.Code, rec.Body)
	}
	if ix.NumDocs() != before+3 {
		t.Fatalf("NumDocs %d, want %d", ix.NumDocs(), before+3)
	}

	// The appended document is immediately searchable through the API.
	rec = do(t, h, "POST", "/v1/search", `{"query":"diesel engine","topN":20}`)
	if rec.Code != 200 {
		t.Fatalf("search = %d: %s", rec.Code, rec.Body)
	}
	if !strings.Contains(rec.Body.String(), `"fresh"`) {
		t.Fatalf("appended doc missing from results: %s", rec.Body)
	}

	// Validation and limits.
	for _, tc := range []struct {
		name, path, body string
		want             int
		inBody           string
	}{
		{"missing text", "/v1/docs", `{"id":"x"}`, 400, "text"},
		{"empty batch", "/v1/docs:batch", `{"docs":[]}`, 400, "at least one"},
		{"batch too large", "/v1/docs:batch", batchBody("docs", `{"text":"a"}`, maxBatch+1), 400, "limit"},
		{"batch missing text", "/v1/docs:batch", `{"docs":[{"id":"x"}]}`, 400, "text"},
	} {
		rec := do(t, h, "POST", tc.path, tc.body)
		if rec.Code != tc.want || !strings.Contains(rec.Body.String(), tc.inBody) {
			t.Fatalf("%s: %d %s", tc.name, rec.Code, rec.Body)
		}
	}
}

func TestLiveDocsOnImmutableIndex(t *testing.T) {
	h := demoHandler(t, Options{})
	rec := do(t, h, "POST", "/v1/docs", `{"text":"a car"}`)
	if rec.Code != http.StatusNotImplemented {
		t.Fatalf("immutable append = %d, want 501", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "immutable") {
		t.Fatalf("body %s", rec.Body)
	}
}

// The vector-space baseline is a plain read-only Retriever: it answers
// searches and stats, and refuses live appends like any immutable index.
func TestServesReadOnlyVSM(t *testing.T) {
	v, err := retrieval.BuildVSM(retrieval.DemoCorpus())
	if err != nil {
		t.Fatal(err)
	}
	h := NewHandler(v, Options{})
	rec := do(t, h, "POST", "/v1/search", `{"query":"car","topN":4}`)
	var resp SearchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || rec.Code != 200 {
		t.Fatalf("search = %d %s (%v)", rec.Code, rec.Body, err)
	}
	// Literal matching: the two documents that say "car", not the synonyms.
	if len(resp.Results) != 2 || resp.Results[0].ID != "demo-00" || resp.Results[1].ID != "demo-03" {
		t.Fatalf("results %+v", resp.Results)
	}
	if rec := do(t, h, "POST", "/v1/search:batch", `{"queries":["galaxy","zzz"],"topN":2}`); rec.Code != 200 {
		t.Fatalf("batch = %d %s", rec.Code, rec.Body)
	}
	rec = do(t, h, "GET", "/v1/stats", "")
	if !strings.Contains(rec.Body.String(), `"backend":"vsm"`) {
		t.Fatalf("stats %s", rec.Body)
	}
	if rec := do(t, h, "POST", "/v1/docs", `{"text":"a car"}`); rec.Code != http.StatusNotImplemented {
		t.Fatalf("append = %d, want 501", rec.Code)
	}
}

func TestReadyz(t *testing.T) {
	// Immutable index: always ready.
	h := demoHandler(t, Options{})
	if rec := do(t, h, "GET", "/readyz", ""); rec.Code != 200 {
		t.Fatalf("immutable readyz = %d", rec.Code)
	}

	// Sharded index: ready, then not-ready once a segment seals, then
	// ready again after compaction.
	h, ix := shardedHandler(t)
	if rec := do(t, h, "GET", "/readyz", ""); rec.Code != 200 {
		t.Fatalf("fresh sharded readyz = %d", rec.Code)
	}
	for i := 0; i < 10; i++ {
		if rec := do(t, h, "POST", "/v1/docs", `{"text":"car engine repair"}`); rec.Code != 200 {
			t.Fatalf("append %d = %d", i, rec.Code)
		}
	}
	rec := do(t, h, "GET", "/readyz", "")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("sealed readyz = %d, want 503", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "not-ready") {
		t.Fatalf("body %s", rec.Body)
	}
	if _, err := ix.Compact(); err != nil {
		t.Fatal(err)
	}
	if rec := do(t, h, "GET", "/readyz", ""); rec.Code != 200 {
		t.Fatalf("compacted readyz = %d: %s", rec.Code, rec.Body)
	}
}

func TestShardedStatsBody(t *testing.T) {
	h, _ := shardedHandler(t)
	rec := do(t, h, "GET", "/v1/stats", "")
	if rec.Code != 200 {
		t.Fatalf("stats = %d", rec.Code)
	}
	var st retrieval.Stats
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if !st.Sharded || st.Shards != 2 || st.Segments == 0 {
		t.Fatalf("stats %+v", st)
	}
	if st.VocabSize == 0 || st.MemoryBytes == 0 {
		t.Fatalf("stats missing size info: %+v", st)
	}
}

func TestLiveDocsOnClosedIndex(t *testing.T) {
	h, ix := shardedHandler(t)
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	rec := do(t, h, "POST", "/v1/docs", `{"text":"a car"}`)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("append on closed index = %d, want 503: %s", rec.Code, rec.Body)
	}
}

// cachedShardedHandler builds a live (sharded) index with a query cache
// so both invalidation paths are exercisable over HTTP.
func cachedShardedHandler(t *testing.T) (http.Handler, *retrieval.Index) {
	t.Helper()
	ix, err := retrieval.Build(retrieval.DemoCorpus(),
		retrieval.WithRank(3), retrieval.WithShards(2),
		retrieval.WithAutoCompact(false), retrieval.WithSealEvery(4),
		retrieval.WithQueryCache(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ix.Close() })
	return NewHandler(ix, Options{}), ix
}

// cacheCounters pulls the query-cache counter block out of /v1/stats.
func cacheCounters(t *testing.T, h http.Handler) map[string]float64 {
	t.Helper()
	rec := do(t, h, "GET", "/v1/stats", "")
	if rec.Code != 200 {
		t.Fatalf("stats = %d: %s", rec.Code, rec.Body)
	}
	var body struct {
		Cache map[string]float64 `json:"cache"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.Cache == nil {
		t.Fatalf("stats body has no cache block: %s", rec.Body)
	}
	return body.Cache
}

func TestCacheStatusHeaderTable(t *testing.T) {
	h, _ := cachedShardedHandler(t)
	uncached := demoHandler(t, Options{})
	const q = `{"query":"car engine","topN":3}`

	cases := []struct {
		name       string
		handler    http.Handler
		body       string
		wantHeader string
	}{
		{"first lookup misses", h, q, "miss"},
		{"repeat hits", h, q, "hit"},
		{"different topN misses", h, `{"query":"car engine","topN":4}`, "miss"},
		{"normalized query shares the entry", h, `{"query":"engine car","topN":3}`, "hit"},
		{"unknown vocabulary bypasses", h, `{"query":"zzzunknownzzz","topN":3}`, ""},
		{"uncached index omits the header", uncached, q, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := do(t, tc.handler, "POST", "/v1/search", tc.body)
			if rec.Code != 200 {
				t.Fatalf("status %d: %s", rec.Code, rec.Body)
			}
			if got := rec.Header().Get("Cache-Status"); got != tc.wantHeader {
				t.Fatalf("Cache-Status = %q, want %q", got, tc.wantHeader)
			}
		})
	}
}

func TestCacheInvalidatedByLiveAppend(t *testing.T) {
	h, _ := cachedShardedHandler(t)
	const q = `{"query":"diesel engine","topN":20}`

	// Prime and verify the entry is hot.
	if rec := do(t, h, "POST", "/v1/search", q); rec.Header().Get("Cache-Status") != "miss" {
		t.Fatalf("prime: Cache-Status %q, body %s", rec.Header().Get("Cache-Status"), rec.Body)
	}
	rec := do(t, h, "POST", "/v1/search", q)
	if rec.Header().Get("Cache-Status") != "hit" {
		t.Fatalf("warm lookup: Cache-Status %q", rec.Header().Get("Cache-Status"))
	}
	if strings.Contains(rec.Body.String(), `"fresh"`) {
		t.Fatalf("doc visible before append: %s", rec.Body)
	}

	// Append over HTTP, then repeat the exact query: the epoch bump must
	// force a recompute that includes the new document.
	if rec := do(t, h, "POST", "/v1/docs", `{"id":"fresh","text":"a fresh car with a diesel engine"}`); rec.Code != 200 {
		t.Fatalf("append = %d: %s", rec.Code, rec.Body)
	}
	rec = do(t, h, "POST", "/v1/search", q)
	if rec.Code != 200 {
		t.Fatalf("post-append search = %d: %s", rec.Code, rec.Body)
	}
	if got := rec.Header().Get("Cache-Status"); got != "miss" {
		t.Fatalf("post-append Cache-Status = %q, want miss (stale epoch served)", got)
	}
	if !strings.Contains(rec.Body.String(), `"fresh"`) {
		t.Fatalf("appended doc missing from post-append results: %s", rec.Body)
	}
	// And the recomputed result is cached at the new epoch.
	if rec := do(t, h, "POST", "/v1/search", q); rec.Header().Get("Cache-Status") != "hit" {
		t.Fatalf("re-warm: Cache-Status %q", rec.Header().Get("Cache-Status"))
	}
}

func TestCacheCountersMonotonicInStats(t *testing.T) {
	h, _ := cachedShardedHandler(t)
	const q = `{"query":"car engine","topN":3}`

	prev := cacheCounters(t, h)
	if prev["hits"] != 0 || prev["misses"] != 0 {
		t.Fatalf("fresh handler has nonzero counters: %+v", prev)
	}
	for i := 0; i < 5; i++ {
		if rec := do(t, h, "POST", "/v1/search", q); rec.Code != 200 {
			t.Fatalf("search %d = %d", i, rec.Code)
		}
		cur := cacheCounters(t, h)
		for _, k := range []string{"hits", "misses", "coalesced", "evictions"} {
			if cur[k] < prev[k] {
				t.Fatalf("counter %q went backwards: %v -> %v", k, prev[k], cur[k])
			}
		}
		if total := cur["hits"] + cur["misses"]; total != float64(i+1) {
			t.Fatalf("after %d searches: hits+misses = %v", i+1, total)
		}
		prev = cur
	}
	if prev["hits"] != 4 || prev["misses"] != 1 {
		t.Fatalf("final counters %v hits / %v misses, want 4 / 1", prev["hits"], prev["misses"])
	}
	if prev["capBytes"] <= 0 || prev["entries"] != 1 {
		t.Fatalf("cache working set not reported: %+v", prev)
	}
	// The uncached handler reports no cache block at all.
	rec := do(t, demoHandler(t, Options{}), "GET", "/v1/stats", "")
	if strings.Contains(rec.Body.String(), `"cache"`) {
		t.Fatalf("uncached stats body carries a cache block: %s", rec.Body)
	}
}
