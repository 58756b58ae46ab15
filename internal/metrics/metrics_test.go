package metrics

import (
	"bufio"
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func expose(t *testing.T, r *Registry) string {
	t.Helper()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	return b.String()
}

// TestExpositionTable pins the exact text format line by line for every
// metric kind, including escaping of help strings and label values.
func TestExpositionTable(t *testing.T) {
	cases := []struct {
		name  string
		setup func(r *Registry)
		want  []string // exact expected output lines, in order
	}{
		{
			name: "counter",
			setup: func(r *Registry) {
				c := r.Counter("requests_total", "Total requests.")
				for range 42 {
					c.Inc()
				}
			},
			want: []string{
				"# HELP requests_total Total requests.",
				"# TYPE requests_total counter",
				"requests_total 42",
			},
		},
		{
			name: "labeled counters share one family header",
			setup: func(r *Registry) {
				search := r.Counter("http_requests_total", "Requests by route.",
					Label{"route", "search"}, Label{"code", "200"})
				docs := r.Counter("http_requests_total", "Requests by route.",
					Label{"route", "docs"}, Label{"code", "429"})
				for i := range 7 {
					search.Inc()
					if i < 3 {
						docs.Inc()
					}
				}
			},
			want: []string{
				"# HELP http_requests_total Requests by route.",
				"# TYPE http_requests_total counter",
				`http_requests_total{code="200",route="search"} 7`,
				`http_requests_total{code="429",route="docs"} 3`,
			},
		},
		{
			name: "gauge",
			setup: func(r *Registry) {
				g := r.Gauge("inflight", "In-flight requests.")
				g.Add(5)
				g.Add(-2)
			},
			want: []string{
				"# HELP inflight In-flight requests.",
				"# TYPE inflight gauge",
				"inflight 3",
			},
		},
		{
			name: "gauge func evaluates at scrape",
			setup: func(r *Registry) {
				v := 2.5
				r.GaugeFunc("debt", "Compaction debt.", func() float64 { return v })
			},
			want: []string{
				"# HELP debt Compaction debt.",
				"# TYPE debt gauge",
				"debt 2.5",
			},
		},
		{
			name: "counter func",
			setup: func(r *Registry) {
				r.CounterFunc("cache_hits_total", "Cache hits.", func() float64 { return 99 })
			},
			want: []string{
				"# HELP cache_hits_total Cache hits.",
				"# TYPE cache_hits_total counter",
				"cache_hits_total 99",
			},
		},
		{
			name: "help escaping",
			setup: func(r *Registry) {
				r.Counter("esc_total", "line one\nline two \\ backslash")
			},
			want: []string{
				`# HELP esc_total line one\nline two \\ backslash`,
				"# TYPE esc_total counter",
				"esc_total 0",
			},
		},
		{
			name: "label value escaping",
			setup: func(r *Registry) {
				r.Gauge("esc_gauge", "Escapes.",
					Label{"path", `C:\tmp`}, Label{"q", "say \"hi\"\nbye"})
			},
			want: []string{
				"# HELP esc_gauge Escapes.",
				"# TYPE esc_gauge gauge",
				`esc_gauge{path="C:\\tmp",q="say \"hi\"\nbye"} 0`,
			},
		},
		{
			name: "histogram buckets cumulative with labels",
			setup: func(r *Registry) {
				h := r.Histogram("latency_seconds", "Latency.", []float64{0.001, 0.01, 0.1},
					Label{"route", "search"})
				for _, v := range []float64{0.0005, 0.0005, 0.005, 0.05, 7} {
					h.Observe(v)
				}
			},
			want: []string{
				"# HELP latency_seconds Latency.",
				"# TYPE latency_seconds histogram",
				`latency_seconds_bucket{route="search",le="0.001"} 2`,
				`latency_seconds_bucket{route="search",le="0.01"} 3`,
				`latency_seconds_bucket{route="search",le="0.1"} 4`,
				`latency_seconds_bucket{route="search",le="+Inf"} 5`,
				`latency_seconds_sum{route="search"} 7.056`,
				`latency_seconds_count{route="search"} 5`,
			},
		},
		{
			name: "boundary value lands in its le bucket",
			setup: func(r *Registry) {
				h := r.Histogram("edge_seconds", "Boundary.", []float64{1, 2})
				h.Observe(1) // le="1" is inclusive
				h.Observe(2.0000001)
			},
			want: []string{
				"# HELP edge_seconds Boundary.",
				"# TYPE edge_seconds histogram",
				`edge_seconds_bucket{le="1"} 1`,
				`edge_seconds_bucket{le="2"} 1`,
				`edge_seconds_bucket{le="+Inf"} 2`,
				"edge_seconds_sum 3.0000001",
				"edge_seconds_count 2",
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRegistry()
			tc.setup(r)
			got := strings.TrimRight(expose(t, r), "\n")
			want := strings.Join(tc.want, "\n")
			if got != want {
				t.Errorf("exposition mismatch\ngot:\n%s\nwant:\n%s", got, want)
			}
		})
	}
}

// TestHistogramInvariants checks, over a generated observation set, the
// structural invariants every scraper relies on: bucket counts are
// nondecreasing in le, the +Inf bucket equals _count, and _sum matches
// the observations.
func TestHistogramInvariants(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("inv_seconds", "Invariants.", ExponentialBuckets(1e-6, 2, 20))
	sum := 0.0
	n := 0
	for i := 0; i < 5000; i++ {
		v := math.Abs(math.Sin(float64(i))) * float64(i%97) * 1e-4
		h.Observe(v)
		sum += v
		n++
	}
	out := expose(t, r)
	var prev int64 = -1
	infSeen, countSeen := false, false
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		fields := strings.Fields(line)
		if len(fields) != 2 || strings.HasPrefix(line, "#") {
			continue
		}
		val, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			t.Fatalf("unparseable sample %q: %v", line, err)
		}
		switch {
		case strings.HasPrefix(fields[0], "inv_seconds_bucket"):
			if int64(val) < prev {
				t.Fatalf("bucket counts not cumulative at %q (prev %d)", line, prev)
			}
			prev = int64(val)
			if strings.Contains(fields[0], `le="+Inf"`) {
				infSeen = true
				if int64(val) != int64(n) {
					t.Fatalf("+Inf bucket %d, want %d", int64(val), n)
				}
			}
		case fields[0] == "inv_seconds_count":
			countSeen = true
			if int64(val) != int64(n) {
				t.Fatalf("_count %d, want %d", int64(val), n)
			}
		case fields[0] == "inv_seconds_sum":
			if math.Abs(val-sum) > 1e-9*math.Abs(sum) {
				t.Fatalf("_sum %g, want %g", val, sum)
			}
		}
	}
	if !infSeen || !countSeen {
		t.Fatalf("missing +Inf bucket (%v) or _count (%v) in:\n%s", infSeen, countSeen, out)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram(ExponentialBuckets(1, 2, 12)) // 1..2048
	// Uniform 1..1000: the true q-quantile is ~1000q; the factor-2
	// buckets bound the estimate within its containing bucket.
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i))
	}
	cases := []struct {
		q        float64
		lo, hi   float64 // containing bucket bounds for the true quantile
		wantNear float64
	}{
		{0.50, 256, 512, 500},
		{0.99, 512, 1024, 990},
		{0.999, 512, 1024, 999},
	}
	for _, tc := range cases {
		got := h.Quantile(tc.q)
		if got < tc.lo || got > tc.hi {
			t.Errorf("Quantile(%g) = %g, want within bucket [%g,%g] (true ~%g)",
				tc.q, got, tc.lo, tc.hi, tc.wantNear)
		}
	}
	if got := h.Quantile(0); got > 1 {
		t.Errorf("Quantile(0) = %g, want <= 1", got)
	}
	if got := h.Quantile(1); got != 1024 {
		t.Errorf("Quantile(1) = %g, want 1024 (upper bound of the 1000 bucket)", got)
	}

	empty := NewHistogram([]float64{1})
	if got := empty.Quantile(0.5); got != 0 {
		t.Errorf("empty Quantile = %g, want 0", got)
	}

	over := NewHistogram([]float64{1, 2})
	over.Observe(100) // +Inf bucket clamps to the highest finite bound
	if got := over.Quantile(0.5); got != 2 {
		t.Errorf("overflow Quantile = %g, want clamp to 2", got)
	}
}

func TestRegistrationPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	r := NewRegistry()
	r.Counter("a_total", "A.")
	mustPanic("duplicate series", func() { r.Counter("a_total", "A.") })
	mustPanic("type mismatch", func() { r.Gauge("a_total", "A.") })
	mustPanic("help mismatch", func() { r.Counter("a_total", "B.", Label{"x", "y"}) })
	mustPanic("bad metric name", func() { r.Counter("0bad", "Bad.") })
	mustPanic("bad label name", func() { r.Counter("b_total", "B.", Label{"0bad", "v"}) })
	mustPanic("duplicate label", func() {
		r.Counter("c_total", "C.", Label{"x", "1"}, Label{"x", "2"})
	})
	mustPanic("empty buckets", func() { NewHistogram(nil) })
	mustPanic("unsorted buckets", func() { NewHistogram([]float64{2, 1}) })
	mustPanic("inf bucket", func() { NewHistogram([]float64{1, math.Inf(1)}) })

	// Same name with distinct labels is the normal vector case — no panic.
	r.Counter("a_total", "A.", Label{"route", "x"})
}

// TestConcurrentScrape exercises observation concurrent with scraping;
// run under -race this pins the lock-free read path.
func TestConcurrentScrape(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("cc_total", "C.")
	g := r.Gauge("cg", "G.")
	h := r.Histogram("ch_seconds", "H.", nil)
	var wg sync.WaitGroup
	done := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(seed+i%100) * 1e-5)
			}
		}(w)
	}
	go func() { wg.Wait(); close(done) }()
	for {
		var b strings.Builder
		if err := r.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		select {
		case <-done:
			if c.Value() != 8000 || h.Count() != 8000 {
				t.Fatalf("counter %d, hist %d, want 8000 each", c.Value(), h.Count())
			}
			return
		default:
		}
	}
}
