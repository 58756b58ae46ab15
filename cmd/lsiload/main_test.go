package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/retrieval"
	"repro/retrieval/httpapi"
)

func startServer(t *testing.T, opts []retrieval.Option, hopts httpapi.Options) *httptest.Server {
	t.Helper()
	ix, err := retrieval.Build(retrieval.DemoCorpus(), append([]retrieval.Option{retrieval.WithRank(3)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ix.Close() })
	srv := httptest.NewServer(httpapi.NewHandler(ix, hopts))
	t.Cleanup(srv.Close)
	return srv
}

func runLoad(t *testing.T, args []string) Summary {
	t.Helper()
	var out, errb bytes.Buffer
	if err := run(context.Background(), args, &out, &errb); err != nil {
		t.Fatalf("lsiload: %v\nstderr: %s", err, errb.String())
	}
	var s Summary
	if err := json.Unmarshal(out.Bytes(), &s); err != nil {
		t.Fatalf("summary is not valid JSON: %v\n%s", err, out.String())
	}
	return s
}

func TestZipfTraceAgainstLiveServer(t *testing.T) {
	srv := startServer(t, []retrieval.Option{retrieval.WithQueryCache(1 << 20)}, httpapi.Options{})
	var out, errb bytes.Buffer
	err := run(context.Background(), []string{"-addr", srv.URL, "-duration", "300ms", "-concurrency", "4",
		"-trace", "zipf", "-seed", "7"}, &out, &errb)
	if err != nil {
		t.Fatalf("lsiload: %v\nstderr: %s", err, errb.String())
	}
	var s Summary
	if err := json.Unmarshal(out.Bytes(), &s); err != nil {
		t.Fatalf("summary is not valid JSON: %v\n%s", err, out.String())
	}

	if s.Requests == 0 || s.OK == 0 {
		t.Fatalf("no traffic delivered: %+v", s)
	}
	if s.Failed != 0 {
		t.Errorf("unexpected failures: %+v", s)
	}
	if !(s.P50Ns > 0 && s.P50Ns <= s.P99Ns && s.P99Ns <= s.P999Ns) {
		t.Errorf("quantiles not ordered: p50=%v p99=%v p999=%v", s.P50Ns, s.P99Ns, s.P999Ns)
	}
	// The stdout summary is the tool's only output, and the smoke scripts
	// grep it as text: pin the spellings they match.
	for _, want := range []string{`"failed": 0,`, `"ok": `, `"p99_ns": `} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("summary lacks %s:\n%s", want, out.String())
		}
	}
}

func TestIngestTraceAppendsDocuments(t *testing.T) {
	srv := startServer(t,
		[]retrieval.Option{retrieval.WithShards(2), retrieval.WithAutoCompact(true)},
		httpapi.Options{MaxInFlight: 8})
	before := 12 // demo corpus size
	s := runLoad(t, []string{"-addr", srv.URL, "-duration", "300ms", "-concurrency", "2", "-trace", "ingest"})
	if s.OK == 0 || s.Failed != 0 {
		t.Fatalf("ingest trace: %+v", s)
	}
	// Roughly half the requests were appends; the index must have grown.
	var stats struct {
		NumDocs int `json:"numDocs"`
	}
	res, err := srv.Client().Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if err := json.NewDecoder(res.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.NumDocs <= before {
		t.Errorf("ingest trace added no documents: numDocs=%d", stats.NumDocs)
	}
}

func TestBurstTraceIdlesBetweenBursts(t *testing.T) {
	srv := startServer(t, nil, httpapi.Options{})
	start := time.Now()
	s := runLoad(t, []string{"-addr", srv.URL, "-duration", "600ms", "-concurrency", "2", "-trace", "burst"})
	if s.OK == 0 {
		t.Fatalf("burst trace delivered nothing: %+v", s)
	}
	if time.Since(start) < 600*time.Millisecond {
		t.Error("burst trace returned before the duration elapsed")
	}
}

func TestANNTraceSweepsProbeBudgets(t *testing.T) {
	srv := startServer(t, []retrieval.Option{retrieval.WithANN(4, 0)}, httpapi.Options{})
	s := runLoad(t, []string{"-addr", srv.URL, "-duration", "300ms", "-concurrency", "4",
		"-trace", "ann", "-nprobe-sweep", "0,2,4", "-seed", "7"})

	if s.Requests == 0 || s.OK == 0 || s.Failed != 0 {
		t.Fatalf("ann trace traffic: %+v", s)
	}
	if len(s.ANNSweep) != 3 {
		t.Fatalf("ann_sweep has %d buckets, want 3: %+v", len(s.ANNSweep), s.ANNSweep)
	}
	var total int64
	for i, b := range s.ANNSweep {
		if b.NProbe != []int{0, 2, 4}[i] {
			t.Errorf("bucket %d budget = %d, want sweep order preserved", i, b.NProbe)
		}
		if b.Requests == 0 || b.P50Ns <= 0 || b.P99Ns < b.P50Ns {
			t.Errorf("bucket %+v has no coherent quantiles", b)
		}
		total += b.Requests
	}
	if total != s.OK {
		t.Errorf("sweep buckets cover %d requests, ok=%d", total, s.OK)
	}
}

func TestParseFlagsRejects(t *testing.T) {
	for _, args := range [][]string{
		{"-trace", "nope"},
		{"-zipf-s", "0.5"},
		{"-trace", "ann", "-nprobe-sweep", "1,-2"},
		{"-trace", "ann", "-nprobe-sweep", " , "},
		{"positional"},
		{"-o", "BENCH.json"}, // the perf-record flags are gone
		{"-l", "label"},
	} {
		if _, err := parseFlags(args, os.Stderr); err == nil {
			t.Errorf("parseFlags(%v) should fail", args)
		}
	}
	cfg, err := parseFlags([]string{"-addr", "localhost:9999"}, os.Stderr)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.addrs) != 1 || cfg.addrs[0] != "http://localhost:9999" {
		t.Errorf("defaults: %+v", cfg)
	}
	// Comma-separated targets normalize independently.
	cfg, err = parseFlags([]string{"-addr", "host1:8080, http://host2:9090/"}, os.Stderr)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.addrs) != 2 || cfg.addrs[0] != "http://host1:8080" || cfg.addrs[1] != "http://host2:9090" {
		t.Errorf("multi-target addrs: %+v", cfg.addrs)
	}
	if _, err := parseFlags([]string{"-addr", " , "}, os.Stderr); err == nil {
		t.Error("empty target list should fail")
	}
}

// TestMultiTargetRoundRobin: with two targets every node sees traffic.
func TestMultiTargetRoundRobin(t *testing.T) {
	var hits [2]atomic.Int64
	servers := make([]*httptest.Server, 2)
	for i := range servers {
		i := i
		servers[i] = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			hits[i].Add(1)
			w.Write([]byte(`{"results":[]}`))
		}))
		t.Cleanup(servers[i].Close)
	}
	s := runLoad(t, []string{"-addr", servers[0].URL + "," + servers[1].URL,
		"-duration", "200ms", "-concurrency", "2"})
	if s.OK == 0 || s.Failed != 0 {
		t.Fatalf("multi-target run: %+v", s)
	}
	if hits[0].Load() == 0 || hits[1].Load() == 0 {
		t.Fatalf("round robin skipped a target: %d / %d", hits[0].Load(), hits[1].Load())
	}
}

// TestShedCounts503: the compaction-debt gate answers 503, which is
// shed (backpressure working), not an error.
func TestShedCounts503(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "2")
		http.Error(w, `{"error":"compaction debt"}`, http.StatusServiceUnavailable)
	}))
	t.Cleanup(srv.Close)
	s := runLoad(t, []string{"-addr", srv.URL, "-duration", "150ms", "-concurrency", "2"})
	if s.Shed == 0 || s.Shed != s.Requests {
		t.Fatalf("503s not counted as shed: %+v", s)
	}
	if s.Failed != 0 || s.ErrorRate != 0 {
		t.Fatalf("503 counted as failure: %+v", s)
	}
}

func TestDefaultQueriesDeterministic(t *testing.T) {
	a, b := defaultQueries(), defaultQueries()
	if len(a) < 10 {
		t.Fatalf("query set too small: %d", len(a))
	}
	if strings.Join(a, ",") != strings.Join(b, ",") {
		t.Error("defaultQueries is not deterministic")
	}
}
