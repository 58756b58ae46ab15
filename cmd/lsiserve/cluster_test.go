package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
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
// that build, tier, cache or mutate a local index are refused in modes
// without one — and, for the read-only VSM baseline, with one that has
// none of those. Every command line the scripts, the benchmark and the
// docs run parses to its mode, and the combinations that used to boot
// with a flag ignored, or to be refused only once the index was built,
// are refused before anything is built or written.
func TestClusterFlagConflicts(t *testing.T) {
	fill := fillPaths(t)
	for _, c := range []struct {
		args []string
		ok   bool
	}{
		{[]string{"-cluster", "m.json", "-replica-of", "URL"}, false},
		{[]string{"-cluster", "m.json", "-index", "FILE"}, false},
		{[]string{"-cluster", "m.json", "-shards", "2"}, false},
		{[]string{"-cluster", "m.json", "-wal-dir", "wal"}, false},
		{[]string{"-cluster", "m.json", "-data-dir", "d"}, false},
		{[]string{"-cluster", "m.json", "doc.txt"}, false},
		{[]string{"-replica-of", "URL", "-index", "FILE"}, false},
		{[]string{"-replica-of", "URL", "-save-cluster", "out"}, false},
		{[]string{"-checkpoint-every", "30s"}, false}, // no -wal-dir
		{[]string{"-cluster", "m.json", "-ann-nlist", "16"}, false},
		{[]string{"-cluster", "m.json", "-ann-nprobe", "8"}, false},
		{[]string{"-cluster", "m.json", "-quant-beta", "4"}, false},
		{[]string{"-cluster", "m.json", "-cache-mb", "0"}, false},
		{[]string{"-replica-of", "URL", "-ann-nlist", "16"}, false},
		{[]string{"-replica-of", "URL", "-ann-nprobe", "8"}, false},
		{[]string{"-replica-of", "URL", "-quant-beta", "4"}, false},
		{[]string{"-replica-of", "URL", "-cache-mb", "32"}, false},
		{[]string{"-backend", "vsm", "-shards", "2"}, false},
		{[]string{"-backend", "vsm", "-ann-nlist", "16"}, false},
		{[]string{"-backend", "vsm", "-ann-nprobe", "8"}, false},
		{[]string{"-backend", "vsm", "-quant-beta", "4"}, false},
		{[]string{"-backend", "vsm", "-cache-mb", "0"}, false},
		{[]string{"-backend", "vsm", "-wal-dir", "wal"}, false},
		{[]string{"-backend", "vsm", "-wal-dir", "wal", "-checkpoint-every", "30s"}, false},
		{[]string{"-backend", "vsm", "-save-cluster", "out"}, false},
		{[]string{"-cluster", "m.json", "-addr", ":0", "-timeout", "5s"}, true},
		{[]string{"-replica-of", "URL", "-data-dir", "d"}, true},
		{[]string{"-index", "DIR", "-wal-dir", "wal", "-checkpoint-every", "30s"}, true},
		{[]string{"-shards", "2", "-save-cluster", "out"}, true},
		// VSM has no rank: -k was ignored here and is refused now.
		{[]string{"-backend", "vsm", "-k", "3", "-weighting", "tfidf", "-addr", ":0"}, false},
		{[]string{"-backend", "vsm", "-weighting", "tfidf", "-addr", ":0"}, true},
	} {
		t.Run(strings.Join(c.args, " "), func(t *testing.T) {
			if _, err := parseFlags(fill(c.args), io.Discard); (err == nil) != c.ok {
				t.Errorf("parseFlags(%v) = %v, want ok: %v", c.args, err, c.ok)
			}
		})
	}

	// Each lsiserve command line of scripts/*.sh, bench/ (startServer
	// adds -addr 127.0.0.1:0 to serveArgs of each workload, and to the
	// router's), README.md, OPERATIONS.md and this command's usage, with
	// the mode it runs in. The Makefile hands the binary to the scripts.
	t.Run("invocations", func(t *testing.T) {
		for _, c := range []struct {
			from, mode string
			args       []string
		}{
			{"serve_smoke.sh", "build", []string{"-addr", "127.0.0.1:0"}},
			{"load_smoke.sh", "live", []string{"-addr", "127.0.0.1:0", "-shards", "4", "-cache-mb", "32", "-max-inflight", "64", "-max-debt", "8"}},
			{"cluster_smoke.sh, chaos_smoke.sh export", "live", []string{"-shards", "3", "-k", "3", "-save-cluster", "cluster"}},
			{"cluster_smoke.sh node", "dir", []string{"-addr", "127.0.0.1:0", "-index", "DIR", "-wal-dir", "wal-0"}},
			{"cluster_smoke.sh router", "router", []string{"-addr", "127.0.0.1:0", "-cluster", "manifest.json"}},
			{"chaos_smoke.sh node", "dir", []string{"-addr", "127.0.0.1:0", "-index", "DIR", "-wal-dir", "wal-0", "-chaos"}},
			{"chaos_smoke.sh router", "router", []string{"-addr", "127.0.0.1:0", "-cluster", "manifest.json", "-probe-every", "500ms", "-breaker-open-for", "1s"}},
			{"bench exact_scan", "file", []string{"-addr", "127.0.0.1:0", "-index", "FILE"}},
			{"bench tiered_ann_quant", "dir", []string{"-addr", "127.0.0.1:0", "-index", "DIR", "-ann-nlist", "64", "-ann-nprobe", "4", "-quant-beta", "16"}},
			{"bench ingest_mixed", "dir", []string{"-addr", "127.0.0.1:0", "-index", "DIR", "-wal-dir", "wal"}},
			{"bench cluster_fanout node", "dir", []string{"-addr", "127.0.0.1:0", "-index", "DIR"}},
			{"bench cluster_fanout router", "router", []string{"-addr", "127.0.0.1:0", "-cluster", "cluster.json"}},
			{"README demo", "build", []string{"-addr", ":8080"}},
			{"README saved index", "file", []string{"-index", "FILE"}},
			{"README cache", "build", []string{"-cache-mb", "128"}},
			{"README ann", "build", []string{"-ann-nlist", "128", "-ann-nprobe", "8"}},
			{"README quant", "build", []string{"-quant-beta", "4"}},
			{"README sharded", "live", []string{"-shards", "4"}},
			{"README, OPERATIONS export", "live", []string{"-shards", "3", "-save-cluster", "/srv/lsi", "corpus/a.txt"}},
			{"README node", "dir", []string{"-addr", ":8081", "-index", "DIR", "-wal-dir", "/srv/lsi/wal-0"}},
			{"README router", "router", []string{"-addr", ":8080", "-cluster", "manifest.json"}},
			{"README replica", "replica", []string{"-replica-of", "http://localhost:8081"}},
			{"README chaos node", "dir", []string{"-addr", ":8081", "-index", "DIR", "-chaos"}},
			{"OPERATIONS start", "live", []string{"-addr", ":8080", "-shards", "4", "-cache-mb", "64", "-max-inflight", "256", "-access-log"}},
			{"OPERATIONS re-export", "dir", []string{"-index", "DIR", "-save-cluster", "OUT"}},
			{"OPERATIONS retrain", "dir", []string{"-index", "DIR", "-ann-nlist", "64", "-ann-nprobe", "4", "-quant-beta", "16"}},
			{"OPERATIONS vsm", "vsm", []string{"-backend", "vsm", "-weighting", "tfidf", "file1.txt"}},
			{"OPERATIONS load test", "live", []string{"-addr", ":8080", "-shards", "4"}},
			{"OPERATIONS node", "dir", []string{"-addr", ":8081", "-index", "DIR", "-wal-dir", "/srv/lsi/wal-0", "-checkpoint-every", "30s"}},
			{"OPERATIONS router", "router", []string{"-addr", ":8080", "-cluster", "/srv/lsi/manifest.json"}},
			{"OPERATIONS replica", "replica", []string{"-addr", ":8082", "-replica-of", "http://host2:8082", "-data-dir", "/srv/lsi/replica-1"}},
			{"usage build", "build", []string{"-addr", ":8080", "-k", "0", "-backend", "lsi", "-weighting", "log", "-shards", "0", "-cache-mb", "64", "file1.txt"}},
			{"usage file", "file", []string{"-index", "FILE"}},
			{"usage dir", "dir", []string{"-index", "DIR"}},
			{"usage node", "dir", []string{"-index", "DIR", "-wal-dir", "wal", "-checkpoint-every", "30s"}},
			{"usage export", "live", []string{"-save-cluster", "out", "-shards", "3", "file1.txt"}},
			{"usage router", "router", []string{"-cluster", "manifest.json"}},
			{"usage replica", "replica", []string{"-replica-of", "http://primary:8080", "-data-dir", "dir"}},
		} {
			if cfg, err := parseFlags(fill(c.args), io.Discard); err != nil || cfg.mode != c.mode {
				t.Errorf("%s: lsiserve %v: mode %q, error %v; want mode %q", c.from, c.args, cfg.mode, err, c.mode)
			}
		}
	})

	// Refused at parse, so nothing is built, served or written: before,
	// the first three booted with the flag ignored, and the last four were
	// refused only after the index was built or opened (the last leaving
	// its WAL behind).
	for _, c := range []struct {
		name string
		args []string
	}{
		{"router ignored -max-debt", []string{"-cluster", "m.json", "-max-debt", "3"}},
		{"replica ignored -max-debt", []string{"-replica-of", "URL", "-max-debt", "2"}},
		{"vsm ignored -k", []string{"-backend", "vsm", "-k", "5"}},
		{"-save-cluster without -shards", []string{"-save-cluster", "OUT"}},
		{"-wal-dir without -shards", []string{"-wal-dir", "WAL"}},
		{"-wal-dir on an index file", []string{"-index", "FILE", "-wal-dir", "WAL"}},
		{"-checkpoint-every without -index DIR", []string{"-shards", "2", "-wal-dir", "WAL", "-checkpoint-every", "1s"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			root := t.TempDir()
			out, wal := filepath.Join(root, "out"), filepath.Join(root, "wal")
			args := fill(c.args)
			for i, a := range args {
				if p, ok := map[string]string{"OUT": out, "WAL": wal}[a]; ok {
					args[i] = p
				}
			}
			if _, err := parseFlags(args, io.Discard); err == nil {
				t.Fatalf("parseFlags(%v) accepted it", c.args)
			}
			var stdout, stderr syncBuffer
			if err := run(context.Background(), append(args, "-addr", "127.0.0.1:0"), &stdout, &stderr); err == nil {
				t.Fatalf("run(%v) returned no error", c.args)
			}
			if out := stdout.String(); out != "" {
				t.Errorf("run(%v) printed %q", c.args, out)
			}
			for _, p := range []string{out, wal} {
				if _, err := os.Stat(p); !errors.Is(err, fs.ErrNotExist) {
					t.Errorf("run(%v) left %s behind (%v)", c.args, p, err)
				}
			}
		})
	}
}
