package httpapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/retrieval"
)

// FuzzSearchBody sends arbitrary bytes to both search routes of an
// unsharded, cached and tiered index. Whatever the body, the handler must
// not panic, must answer no 5xx but a timeout's 504, and every 200 must
// carry a JSON results array with at most MaxTopN hits per query.
func FuzzSearchBody(f *testing.F) {
	ix, err := retrieval.Build(retrieval.DemoCorpus(),
		retrieval.WithRank(3), retrieval.WithEngine(retrieval.EngineDense),
		retrieval.WithANN(4, 2), retrieval.WithQuantized(2), retrieval.WithQueryCache(1<<20))
	if err != nil {
		f.Fatal(err)
	}
	const maxTopN = 5
	h := NewHandler(ix, Options{MaxTopN: maxTopN})

	vec := make([]string, ix.NumTerms())
	for i := range vec {
		vec[i] = fmt.Sprint(i % 3)
	}
	vector := "[" + strings.Join(vec, ",") + "]"
	for _, body := range []string{
		`{"query":"car engine","topN":3}`,
		`{"query":"car engine","nprobe":-1}`,
		`{"query":"car engine","nprobe":0}`,
		`{"query":"car engine","nprobe":2}`,
		`{"query":"car engine","nprobe":9223372036854775807}`,
		`{"query":"car engine","vector":` + vector + `}`,
		`{"vector":` + vector + `,"topN":50,"nprobe":1}`,
		`{"vector":[]}`,
		`{"vector":[1,2,3]}`,
		`{"vector":` + strings.ReplaceAll(vector, "2", "1e308") + `}`,
		`{"query":"galaxy","topN":-4}`,
		`{"query":"zzzunknownzzz"}`,
		`{"queries":["car engine","galaxy stars","zzzunknownzzz"],"topN":9}`,
		`{"queries":[],"topN":3}`,
		`{"queries":["car"],"topN":-1}`,
		`not json`,
	} {
		f.Add(false, []byte(body))
		f.Add(true, []byte(body))
	}

	f.Fuzz(func(t *testing.T, batch bool, body []byte) {
		path := "/v1/search"
		if batch {
			path = "/v1/search:batch"
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", path, bytes.NewReader(body)))
		switch {
		case rec.Code >= 500 && rec.Code != http.StatusGatewayTimeout:
			t.Fatalf("%s %q: status %d: %s", path, body, rec.Code, rec.Body)
		case rec.Code != http.StatusOK:
			return
		}
		var lists [][]retrieval.Result
		if batch {
			var resp BatchSearchResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || resp.Results == nil {
				t.Fatalf("%s %q: 200 without a results array (%v): %s", path, body, err, rec.Body)
			}
			lists = resp.Results
		} else {
			var resp SearchResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || resp.Results == nil {
				t.Fatalf("%s %q: 200 without a results array (%v): %s", path, body, err, rec.Body)
			}
			lists = [][]retrieval.Result{resp.Results}
		}
		for i, l := range lists {
			if len(l) > maxTopN {
				t.Fatalf("%s %q: list %d has %d hits, over MaxTopN %d", path, body, i, len(l), maxTopN)
			}
		}
	})
}
