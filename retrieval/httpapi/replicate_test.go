package httpapi

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/retrieval"
)

// replicaHandler builds a WAL'd sharded index checkpointed into a
// directory and wraps it in a replication-enabled handler, returning
// both (the index for driving writes, the handler for the HTTP side).
func replicaHandler(t *testing.T) (*retrieval.Index, *Handler, string) {
	t.Helper()
	dir := t.TempDir()
	data, waldir := filepath.Join(dir, "data"), filepath.Join(dir, "wal")
	ix, err := retrieval.Build(retrieval.DemoCorpus(),
		retrieval.WithRank(3), retrieval.WithShards(2), retrieval.WithAutoCompact(false))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ix.Close() })
	if err := ix.SaveDir(data); err != nil {
		t.Fatal(err)
	}
	if _, err := ix.AttachWAL(waldir); err != nil {
		t.Fatal(err)
	}
	return ix, NewHandler(ix, Options{ReplicateDir: data}), data
}

// TestReplicateManifestAndFiles: a replica can pull the manifest, then
// every file it names, and traversal or junk names are rejected.
func TestReplicateManifestAndFiles(t *testing.T) {
	_, h, data := replicaHandler(t)

	rec := do(t, h, "GET", "/v1/replicate/manifest", "")
	if rec.Code != 200 {
		t.Fatalf("manifest: status %d: %s", rec.Code, rec.Body)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("manifest Content-Type %q", ct)
	}
	var man struct {
		Generation int      `json:"generation"`
		IDsFile    string   `json:"idsFile"`
		Segments   []string `json:"-"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &man); err != nil {
		t.Fatalf("manifest body: %v", err)
	}
	if man.IDsFile == "" {
		t.Fatalf("manifest names no ids file: %s", rec.Body)
	}

	// Every whitelisted kind serves, the tier sidecars of a segment
	// included (the demo corpus is too small to train any, so stand-ins).
	for _, name := range []string{"ann-0-0-0.ivf", "quant-0-0-0.qnt"} {
		if err := os.WriteFile(filepath.Join(data, name), []byte("sidecar"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{man.IDsFile, "text.json", "manifest.json", "seg-0-0-0.idx", "ann-0-0-0.ivf", "quant-0-0-0.qnt"} {
		rec := do(t, h, "GET", "/v1/replicate/file?name="+name, "")
		if rec.Code != 200 {
			t.Errorf("file %q: status %d: %s", name, rec.Code, rec.Body)
		}
	}

	// Names outside the checkpoint vocabulary are 400 — including every
	// traversal shape; a well-formed name that does not exist is 404.
	for _, name := range []string{"", "../data/manifest.json", "..%2Fmanifest.json", "wal-0000000000000000.log", "seg-1-2.idx", "manifest.json/",
		"../manifest.json", "seg-1.idx", "x.ivf", "ann-0-0-0.ivf.tmp", "quant-0-0-0.idx", "ids-0-0-0.json"} {
		rec := do(t, h, "GET", "/v1/replicate/file?name="+name, "")
		if rec.Code != http.StatusBadRequest {
			t.Errorf("file %q: status %d, want 400", name, rec.Code)
		}
	}
	if rec := do(t, h, "GET", "/v1/replicate/file?name=ids-9999.json", ""); rec.Code != http.StatusNotFound {
		t.Errorf("retired file: status %d, want 404", rec.Code)
	}
}

// TestReplicateWAL: the tail endpoint serves exactly the suffix a
// replica is missing, 410 after a checkpoint rotates it away, and the
// freshness headers describe the primary.
func TestReplicateWAL(t *testing.T) {
	ix, h, data := replicaHandler(t)
	base := ix.NumDocs()
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := ix.Add(ctx, []retrieval.Document{{ID: fmt.Sprintf("w-%d", i), Text: "car engine"}}); err != nil {
			t.Fatal(err)
		}
	}

	rec := do(t, h, "GET", "/v1/replicate/wal?from="+strconv.Itoa(base+1), "")
	if rec.Code != 200 {
		t.Fatalf("wal tail: status %d: %s", rec.Code, rec.Body)
	}
	var resp ReplicateWALResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Docs) != 2 || resp.Docs[0].ID != "w-1" || resp.Docs[1].ID != "w-2" {
		t.Fatalf("wal tail docs: %+v, want [w-1 w-2]", resp.Docs)
	}
	if got := rec.Header().Get("X-Index-Docs"); got != strconv.Itoa(base+3) {
		t.Errorf("X-Index-Docs %q, want %d", got, base+3)
	}

	// Caught up: empty but 200.
	rec = do(t, h, "GET", "/v1/replicate/wal?from="+strconv.Itoa(base+3), "")
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), `"docs":[]`) {
		t.Fatalf("caught-up tail: status %d body %s", rec.Code, rec.Body)
	}

	// Malformed positions are the client's fault.
	for _, q := range []string{"", "?from=", "?from=-1", "?from=x"} {
		if rec := do(t, h, "GET", "/v1/replicate/wal"+q, ""); rec.Code != http.StatusBadRequest {
			t.Errorf("wal%s: status %d, want 400", q, rec.Code)
		}
	}

	// A checkpoint rotates the log: an old position is 410 Gone.
	if err := ix.Checkpoint(data); err != nil {
		t.Fatal(err)
	}
	if rec := do(t, h, "GET", "/v1/replicate/wal?from="+strconv.Itoa(base+1), ""); rec.Code != http.StatusGone {
		t.Errorf("rotated tail: status %d, want 410: %s", rec.Code, rec.Body)
	}
}

// TestReplicateDisabled: without ReplicateDir the file endpoints 404;
// without an attached WAL the tail endpoint 404s.
func TestReplicateDisabled(t *testing.T) {
	h := demoHandler(t, Options{})
	for _, path := range []string{"/v1/replicate/manifest", "/v1/replicate/file?name=manifest.json", "/v1/replicate/wal?from=0"} {
		if rec := do(t, h, "GET", path, ""); rec.Code != http.StatusNotFound {
			t.Errorf("%s on plain handler: status %d, want 404", path, rec.Code)
		}
	}
}

// TestIndexHeaders: search, stats, readyz, and docs responses carry the
// freshness headers, and the docs headers reflect the post-append
// state.
func TestIndexHeaders(t *testing.T) {
	ix, h, _ := replicaHandler(t)
	before := ix.NumDocs()

	rec := do(t, h, "POST", "/v1/search", `{"query":"car engine","topN":3}`)
	if rec.Code != 200 {
		t.Fatalf("search: %d: %s", rec.Code, rec.Body)
	}
	for _, hdr := range []string{"X-Index-Epoch", "X-Index-Generation", "X-Index-Docs"} {
		if rec.Header().Get(hdr) == "" {
			t.Errorf("search response missing %s", hdr)
		}
	}
	if rec.Header().Get("X-Partial-Results") != "" {
		t.Error("single-process search marked partial")
	}

	rec = do(t, h, "POST", "/v1/docs", `{"id":"hdr","text":"car engine"}`)
	if rec.Code != 200 {
		t.Fatalf("docs: %d: %s", rec.Code, rec.Body)
	}
	if got := rec.Header().Get("X-Index-Docs"); got != strconv.Itoa(before+1) {
		t.Errorf("docs X-Index-Docs %q, want %d (post-append)", got, before+1)
	}

	rec = do(t, h, "GET", "/readyz", "")
	if rec.Code != 200 {
		t.Fatalf("readyz: %d", rec.Code)
	}
	var body map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"epoch", "generation", "numDocs"} {
		if _, ok := body[key]; !ok {
			t.Errorf("readyz body missing %q: %s", key, rec.Body)
		}
	}
	if rec := do(t, h, "GET", "/v1/stats", ""); rec.Header().Get("X-Index-Generation") == "" {
		t.Error("stats response missing X-Index-Generation")
	}
}

// partialRet fakes a cluster router: a fan-out that reports a degraded
// quorum.
type partialRet struct {
	partial bool
}

func (p *partialRet) Query(ctx context.Context, q retrieval.Query) (retrieval.Answer, error) {
	out := make([][]retrieval.Result, len(q.Texts))
	for i := range out {
		out[i] = []retrieval.Result{{Doc: 0, ID: "d", Score: 1}}
	}
	return retrieval.Answer{Results: out, Partial: p.partial}, nil
}

func (p *partialRet) NumDocs() int           { return 1 }
func (p *partialRet) Stats() retrieval.Stats { return retrieval.Stats{Backend: "fake", NumDocs: 1} }

// TestPartialResultsHeader: a fan-out retriever answering from a
// degraded quorum marks the response; a full-quorum answer does not.
func TestPartialResultsHeader(t *testing.T) {
	ret := &partialRet{partial: true}
	h := NewHandler(ret, Options{})
	for _, c := range []struct{ path, body string }{
		{"/v1/search", `{"query":"x"}`},
		{"/v1/search:batch", `{"queries":["x","y"]}`},
	} {
		rec := do(t, h, "POST", c.path, c.body)
		if rec.Code != 200 {
			t.Fatalf("%s: %d: %s", c.path, rec.Code, rec.Body)
		}
		if rec.Header().Get("X-Partial-Results") != "true" {
			t.Errorf("%s: degraded response not marked partial", c.path)
		}
	}
	ret.partial = false
	if rec := do(t, h, "POST", "/v1/search", `{"query":"x"}`); rec.Header().Get("X-Partial-Results") != "" {
		t.Error("full-quorum response marked partial")
	}
}
