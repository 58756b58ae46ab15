package httpapi

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"repro/retrieval"
)

// annIndex builds a demo index carrying an IVF tier with quantizers
// trained but the default search exhaustive, so only explicit nprobe
// requests touch the tier.
func annIndex(t *testing.T) *retrieval.Index {
	t.Helper()
	ix, err := retrieval.Build(retrieval.DemoCorpus(),
		retrieval.WithRank(3), retrieval.WithEngine(retrieval.EngineDense),
		retrieval.WithANN(4, 0))
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func TestSearchNProbe(t *testing.T) {
	ix := annIndex(t)
	h := NewHandler(ix, Options{})

	// A full budget reproduces the default (exhaustive) ranking exactly.
	base := do(t, h, "POST", "/v1/search", `{"query":"car","topN":3}`)
	if base.Code != http.StatusOK {
		t.Fatalf("baseline search: %d: %s", base.Code, base.Body)
	}
	probed := do(t, h, "POST", "/v1/search", `{"query":"car","topN":3,"nprobe":4}`)
	if probed.Code != http.StatusOK {
		t.Fatalf("nprobe search: %d: %s", probed.Code, probed.Body)
	}
	var want, got SearchResponse
	if err := json.Unmarshal(base.Body.Bytes(), &want); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(probed.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Results) != len(want.Results) {
		t.Fatalf("nprobe=nlist returned %d results, exhaustive %d", len(got.Results), len(want.Results))
	}
	for i := range want.Results {
		if got.Results[i] != want.Results[i] {
			t.Fatalf("nprobe=nlist result %d = %+v, want %+v", i, got.Results[i], want.Results[i])
		}
	}

	// nprobe=0 is the explicit exhaustive escape hatch — still a 200.
	if rec := do(t, h, "POST", "/v1/search", `{"query":"car","topN":3,"nprobe":0}`); rec.Code != http.StatusOK {
		t.Fatalf("nprobe=0: %d: %s", rec.Code, rec.Body)
	}
	// Unknown-vocabulary probes are empty result sets, not errors.
	rec := do(t, h, "POST", "/v1/search", `{"query":"zzzunknownzzz","nprobe":2}`)
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"results":[]`) {
		t.Fatalf("unknown-vocab probe: %d: %s", rec.Code, rec.Body)
	}
	// Negative budgets are malformed.
	if rec := do(t, h, "POST", "/v1/search", `{"query":"car","nprobe":-1}`); rec.Code != http.StatusBadRequest {
		t.Fatalf("nprobe=-1: %d, want 400", rec.Code)
	}

	// Vector queries take the budget too.
	vec := make([]float64, ix.NumTerms())
	vec[0] = 1
	body, _ := json.Marshal(SearchRequest{Vector: vec, TopN: 3, NProbe: &[]int{4}[0]})
	if rec := do(t, h, "POST", "/v1/search", string(body)); rec.Code != http.StatusOK {
		t.Fatalf("vector nprobe: %d: %s", rec.Code, rec.Body)
	}
}

// plainRetriever stands for a backend without a probe budget: it answers
// one with retrieval.ErrUnsupported, as the VSM baseline and the cluster
// router do.
type plainRetriever struct{ retrieval.Retriever }

func (p plainRetriever) Query(ctx context.Context, q retrieval.Query) (retrieval.Answer, error) {
	if q.NProbe != nil {
		return retrieval.Answer{}, fmt.Errorf("%w: no probe budget here", retrieval.ErrUnsupported)
	}
	return p.Retriever.Query(ctx, q)
}

func TestSearchNProbeWithoutCapability(t *testing.T) {
	h := NewHandler(plainRetriever{annIndex(t)}, Options{})
	rec := do(t, h, "POST", "/v1/search", `{"query":"car","nprobe":2}`)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("nprobe on a backend without a probe budget: %d, want 400", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "probe budgets") {
		t.Fatalf("unexpected error body: %s", rec.Body)
	}
}

func TestStatsAndMetricsANNBlock(t *testing.T) {
	h := NewHandler(annIndex(t), Options{})

	stats := do(t, h, "GET", "/v1/stats", "")
	if stats.Code != http.StatusOK {
		t.Fatalf("stats: %d", stats.Code)
	}
	var st struct {
		ANN *retrieval.ANNStats `json:"ann"`
	}
	if err := json.Unmarshal(stats.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.ANN == nil || st.ANN.Segments != 1 {
		t.Fatalf("stats ann block = %+v, want a 1-segment tier", st.ANN)
	}

	// Probe once, then the counter series must be live on /metrics.
	if rec := do(t, h, "POST", "/v1/search", `{"query":"car","nprobe":2}`); rec.Code != http.StatusOK {
		t.Fatalf("probe: %d: %s", rec.Code, rec.Body)
	}
	metrics := do(t, h, "GET", "/metrics", "")
	body := metrics.Body.String()
	for _, series := range []string{"lsi_ann_segments 1", "lsi_ann_searches_total 1", "lsi_ann_cells_probed_total 2"} {
		if !strings.Contains(body, series) {
			t.Fatalf("/metrics missing %q:\n%s", series, body)
		}
	}
}

func TestMetricsOmitANNWithoutTier(t *testing.T) {
	h := demoHandler(t, Options{})
	if body := do(t, h, "GET", "/metrics", "").Body.String(); strings.Contains(body, "lsi_ann_") {
		t.Fatalf("tier-less index exports ANN series:\n%s", body)
	}
}
