package httpapi

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/retrieval"
)

// shedRetriever fails every search/add with a ShedError — the shape
// the cluster router returns when every candidate node shed.
type shedRetriever struct {
	retrieval.Retriever
	status int
	after  time.Duration
}

func (s *shedRetriever) Query(ctx context.Context, q retrieval.Query) (retrieval.Answer, error) {
	return retrieval.Answer{}, &ShedError{StatusCode: s.status, RetryAfter: s.after, Msg: "node shed: compaction debt"}
}

func (s *shedRetriever) Add(ctx context.Context, docs []retrieval.Document) (int, error) {
	return 0, &ShedError{StatusCode: s.status, RetryAfter: s.after, Msg: "node shed: compaction debt"}
}

func (s *shedRetriever) TailWAL(from int) ([]retrieval.Document, error) {
	return nil, retrieval.ErrNoWAL
}

// TestShedErrorPropagatesRetryAfter: a backend shed surfaces to the
// client with its original status and Retry-After hint instead of
// flattening into a 500 at the router hop.
func TestShedErrorPropagatesRetryAfter(t *testing.T) {
	ix, err := retrieval.Build(retrieval.DemoCorpus(), retrieval.WithRank(3))
	if err != nil {
		t.Fatal(err)
	}
	h := NewHandler(&shedRetriever{Retriever: ix, status: 503, after: 2 * time.Second}, Options{})

	rec := do(t, h, "POST", "/v1/search", `{"query":"car"}`)
	if rec.Code != 503 {
		t.Fatalf("search status %d, want 503; body: %s", rec.Code, rec.Body)
	}
	if got := rec.Header().Get("Retry-After"); got != "2" {
		t.Fatalf("search Retry-After %q, want 2", got)
	}
	if !strings.Contains(rec.Body.String(), "compaction debt") {
		t.Fatalf("shed body lost the node's message: %s", rec.Body)
	}

	rec = do(t, h, "POST", "/v1/docs", `{"text":"a new doc"}`)
	if rec.Code != 503 {
		t.Fatalf("docs status %d, want 503; body: %s", rec.Code, rec.Body)
	}
	if got := rec.Header().Get("Retry-After"); got != "2" {
		t.Fatalf("docs Retry-After %q, want 2", got)
	}
}

// TestReplicateFileRangeResumes: a replica can re-fetch the rest of a
// checkpoint file with a Range request (206 + the exact suffix) — the
// resumable-bootstrap primitive.
func TestReplicateFileRangeResumes(t *testing.T) {
	_, h, _ := replicaHandler(t)

	full := do(t, h, "GET", "/v1/replicate/manifest", "")
	if full.Code != 200 {
		t.Fatalf("manifest: %d", full.Code)
	}
	body := full.Body.Bytes()
	if len(body) < 10 {
		t.Fatalf("manifest too small to split: %d bytes", len(body))
	}

	req := httptest.NewRequest("GET", "/v1/replicate/file?name=manifest.json", nil)
	req.Header.Set("Range", "bytes=5-")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusPartialContent {
		t.Fatalf("ranged fetch: status %d, want 206", rec.Code)
	}
	if got := rec.Body.String(); got != string(body[5:]) {
		t.Fatalf("ranged fetch returned %d bytes, want the %d-byte suffix", len(got), len(body)-5)
	}
	// Freshness headers still ride along so the replica can detect a
	// checkpoint racing its resumed pull.
	if rec.Header().Get("X-Index-Generation") == "" {
		t.Fatal("ranged response lost the X-Index-Generation header")
	}
	// A range past EOF is 416 — the replica restarts that file.
	req = httptest.NewRequest("GET", "/v1/replicate/file?name=manifest.json", nil)
	req.Header.Set("Range", "bytes=99999999-")
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestedRangeNotSatisfiable {
		t.Fatalf("past-EOF range: status %d, want 416", rec.Code)
	}
}

// TestDrainReplication: draining sheds new replication requests with
// 503 + Retry-After, waits for in-flight ones, and leaves ordinary
// search traffic untouched.
func TestDrainReplication(t *testing.T) {
	_, h, _ := replicaHandler(t)

	// Hold one replication download in flight over a real connection so
	// the drain has something to wait for.
	srv := httptest.NewServer(h)
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/replicate/manifest")
	if err != nil {
		t.Fatal(err)
	}
	// The handler has completed by the time the response headers are
	// readable, but the drain-group accounting is what we're testing:
	// consume the body fully so leave() has certainly run.
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := h.DrainReplication(ctx); err != nil {
		t.Fatalf("drain with nothing in flight: %v", err)
	}

	// Post-drain: replication sheds, search still serves.
	rec := do(t, h, "GET", "/v1/replicate/manifest", "")
	if rec.Code != 503 {
		t.Fatalf("post-drain replication: status %d, want 503; body: %s", rec.Code, rec.Body)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("post-drain shed carries no Retry-After")
	}
	rec = do(t, h, "GET", "/v1/replicate/wal?from=0", "")
	if rec.Code != 503 {
		t.Fatalf("post-drain wal tail: status %d, want 503", rec.Code)
	}
	rec = do(t, h, "POST", "/v1/search", `{"query":"car"}`)
	if rec.Code != 200 {
		t.Fatalf("post-drain search: status %d, want 200; body: %s", rec.Code, rec.Body)
	}
}

// TestDrainWaitsForInflight: a drain started while a replication
// request is executing blocks until that request leaves, and a context
// that expires first surfaces as the context's error.
func TestDrainWaitsForInflight(t *testing.T) {
	var g drainGroup
	if !g.enter() {
		t.Fatal("fresh group refused admission")
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	drained := make(chan error, 1)
	go func() { drained <- g.drain(ctx) }()

	select {
	case err := <-drained:
		t.Fatalf("drain returned with a request in flight: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	if g.enter() {
		t.Fatal("draining group admitted a new request")
	}
	g.leave()
	select {
	case err := <-drained:
		if err != nil {
			t.Fatalf("drain after leave: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("drain never returned after the last request left")
	}

	// A second drain is idempotent and immediate.
	if err := g.drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Context expiry beats a stuck request.
	var g2 drainGroup
	g2.enter()
	ctx2, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if err := g2.drain(ctx2); !errors.Is(err, context.Canceled) {
		t.Fatalf("drain with dead context: %v, want context.Canceled", err)
	}
}
