package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/retrieval/httpapi"
)

// daemon boots run() in a goroutine with the given flags plus a random
// port, waits for the listen line, and returns the base URL. Shutdown
// (cancel + error check) is registered as cleanup.
func daemon(t *testing.T, args ...string) string {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var stdout, stderr syncBuffer
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, append(args, "-addr", "127.0.0.1:0"), &stdout, &stderr)
	}()
	t.Cleanup(func() {
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("daemon %v exited: %v (stderr: %s)", args, err, stderr.String())
			}
		case <-time.After(10 * time.Second):
			t.Errorf("daemon %v did not shut down", args)
		}
	})
	deadline := time.After(15 * time.Second)
	for {
		if out := stdout.String(); strings.Contains(out, "listening on http://") {
			line := out[strings.Index(out, "listening on http://"):]
			return strings.TrimSpace(strings.TrimPrefix(line[:strings.Index(line, "\n")], "listening on "))
		}
		select {
		case err := <-done:
			t.Fatalf("daemon %v exited early: %v (stderr: %s)", args, err, stderr.String())
		case <-deadline:
			t.Fatalf("daemon %v never came up; stdout: %s stderr: %s", args, stdout.String(), stderr.String())
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// TestEndToEndClusterServe drives the whole distributed tier through
// run(): export node directories with -save-cluster, boot one WAL'd
// node per shard, boot a router over a written manifest, append and
// search through the router, and boot a replica of one node.
func TestEndToEndClusterServe(t *testing.T) {
	root := t.TempDir()
	out := filepath.Join(root, "cluster")

	// Export: builds the demo corpus sharded 2 ways and splits it.
	var stdout, stderr syncBuffer
	if err := run(context.Background(), []string{"-k", "3", "-shards", "2", "-save-cluster", out}, &stdout, &stderr); err != nil {
		t.Fatalf("save-cluster: %v (stderr: %s)", err, stderr.String())
	}
	if !strings.Contains(stdout.String(), "exported 2 node directories") {
		t.Fatalf("save-cluster output: %q", stdout.String())
	}

	// One node per shard, each with a WAL and -checkpoint-every armed.
	nodeURLs := make([]string, 2)
	for s := 0; s < 2; s++ {
		nodeURLs[s] = daemon(t,
			"-index", filepath.Join(out, fmt.Sprintf("shard-%d", s)),
			"-wal-dir", filepath.Join(root, fmt.Sprintf("wal-%d", s)),
			"-checkpoint-every", "1h")
	}

	// The routing tier over a manifest file.
	manifest := filepath.Join(root, "manifest.json")
	manJSON := fmt.Sprintf(`{"version":1,"shards":2,"nodes":[
		{"name":"n0","url":"%s","shard":0},
		{"name":"n1","url":"%s","shard":1}]}`, nodeURLs[0], nodeURLs[1])
	if err := os.WriteFile(manifest, []byte(manJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	routerURL := daemon(t, "-cluster", manifest)

	// Reads through the router: the demo corpus answers as one index.
	resp, err := http.Post(routerURL+"/v1/search", "application/json",
		strings.NewReader(`{"query":"car engine","topN":4}`))
	if err != nil {
		t.Fatal(err)
	}
	var sr httpapi.SearchResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 || len(sr.Results) != 4 {
		t.Fatalf("router search: %d %+v", resp.StatusCode, sr.Results)
	}
	if got := resp.Header.Get("X-Partial-Results"); got != "" {
		t.Fatalf("healthy cluster answered partial: %q", got)
	}

	// Writes through the router land on a shard and become searchable.
	resp, err = http.Post(routerURL+"/v1/docs", "application/json",
		strings.NewReader(`{"id":"live-1","text":"a turbocharged car engine"}`))
	if err != nil {
		t.Fatal(err)
	}
	var added httpapi.AddDocsResponse
	if err := json.NewDecoder(resp.Body).Decode(&added); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 || added.Count != 1 {
		t.Fatalf("router append: %d %+v", resp.StatusCode, added)
	}
	resp, err = http.Post(routerURL+"/v1/search", "application/json",
		strings.NewReader(`{"query":"turbocharged engine","topN":20}`))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	found := false
	for _, r := range sr.Results {
		found = found || r.ID == "live-1"
	}
	if !found {
		t.Fatalf("routed append missing from routed search: %+v", sr.Results)
	}

	// Readiness and freshness surface through the router.
	resp, err = http.Get(routerURL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("router /readyz = %d", resp.StatusCode)
	}
	if resp.Header.Get("X-Index-Docs") != "13" {
		t.Fatalf("router X-Index-Docs = %q, want 13", resp.Header.Get("X-Index-Docs"))
	}

	// A replica of node 0 bootstraps over HTTP and converges on the
	// node's doc count once the background WAL tail catches up the
	// append that happened after the node's last checkpoint.
	replicaURL := daemon(t, "-replica-of", nodeURLs[0], "-data-dir", filepath.Join(root, "replica"))
	numDocs := func(base string) int {
		t.Helper()
		resp, err := http.Get(base + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st struct{ NumDocs int }
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st.NumDocs
	}
	want := numDocs(nodeURLs[0])
	deadline := time.Now().Add(10 * time.Second)
	for numDocs(replicaURL) != want {
		if time.Now().After(deadline) {
			t.Fatalf("replica stuck at %d docs, node holds %d", numDocs(replicaURL), want)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestClusterFlagConflicts: the serving modes are exclusive, and flags
// that build, tier, cache or mutate a local index are rejected in modes
// without one — and, for the read-only VSM baseline, with one that has
// none of those.
func TestClusterFlagConflicts(t *testing.T) {
	var stderr bytes.Buffer
	bad := [][]string{
		{"-cluster", "m.json", "-replica-of", "http://x"},
		{"-cluster", "m.json", "-index", "x.idx"},
		{"-cluster", "m.json", "-shards", "2"},
		{"-cluster", "m.json", "-wal-dir", "wal"},
		{"-cluster", "m.json", "-data-dir", "d"},
		{"-cluster", "m.json", "doc.txt"},
		{"-replica-of", "http://x", "-index", "x.idx"},
		{"-replica-of", "http://x", "-save-cluster", "out"},
		{"-checkpoint-every", "30s"}, // no -wal-dir
		{"-cluster", "m.json", "-ann-nlist", "16"},
		{"-cluster", "m.json", "-ann-nprobe", "8"},
		{"-cluster", "m.json", "-quant-beta", "4"},
		{"-cluster", "m.json", "-cache-mb", "0"},
		{"-replica-of", "http://x", "-ann-nlist", "16"},
		{"-replica-of", "http://x", "-ann-nprobe", "8"},
		{"-replica-of", "http://x", "-quant-beta", "4"},
		{"-replica-of", "http://x", "-cache-mb", "32"},
		{"-backend", "vsm", "-shards", "2"},
		{"-backend", "vsm", "-ann-nlist", "16"},
		{"-backend", "vsm", "-ann-nprobe", "8"},
		{"-backend", "vsm", "-quant-beta", "4"},
		{"-backend", "vsm", "-cache-mb", "0"},
		{"-backend", "vsm", "-wal-dir", "wal"},
		{"-backend", "vsm", "-wal-dir", "wal", "-checkpoint-every", "30s"},
		{"-backend", "vsm", "-save-cluster", "out"},
	}
	for _, args := range bad {
		if _, err := parseFlags(args, &stderr); err == nil {
			t.Errorf("parseFlags(%v) should fail", args)
		}
	}
	good := [][]string{
		{"-cluster", "m.json", "-addr", ":0", "-timeout", "5s"},
		{"-replica-of", "http://x", "-data-dir", "d"},
		{"-index", "dir", "-wal-dir", "wal", "-checkpoint-every", "30s"},
		{"-shards", "2", "-save-cluster", "out"},
		{"-backend", "vsm", "-k", "3", "-weighting", "tfidf", "-addr", ":0"},
	}
	for _, args := range good {
		if _, err := parseFlags(args, &stderr); err != nil {
			t.Errorf("parseFlags(%v) = %v, want ok", args, err)
		}
	}
}
