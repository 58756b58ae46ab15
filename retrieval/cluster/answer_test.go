package cluster

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/retrieval/httpapi"
)

// answerBody is a node answer's body that counts what is read of it and
// whether it was closed.
type answerBody struct {
	r      *bytes.Reader
	read   int
	closed bool
}

func (b *answerBody) Read(p []byte) (int, error) {
	n, err := b.r.Read(p)
	b.read += n
	return n, err
}

func (b *answerBody) Close() error {
	b.closed = true
	return nil
}

// answerTransport answers every request in memory, with no socket.
type answerTransport func(*http.Request) (*http.Response, error)

func (f answerTransport) RoundTrip(req *http.Request) (*http.Response, error) { return f(req) }

// nodeAnswer runs request against one node whose answer is status,
// Retry-After and body, and returns the body and request's error.
func nodeAnswer(status int, retryAfter string, body []byte) (*answerBody, error) {
	ab := &answerBody{r: bytes.NewReader(body)}
	client := &http.Client{Transport: answerTransport(func(req *http.Request) (*http.Response, error) {
		h := http.Header{}
		if retryAfter != "" {
			h.Set("Retry-After", retryAfter)
		}
		return &http.Response{StatusCode: status, Header: h, Body: ab, Request: req}, nil
	})}
	var out httpapi.SearchResponse
	err := request(context.Background(), client, time.Second, "n0", "http://node", "/v1/search", nil, &out)
	return ab, err
}

// TestStatusErrorClampsRetryAfter: a node's Retry-After reaches the
// router as the seconds it says, up to maxRetryAfter, and a hint too large
// for a Duration is clamped, not dropped or wrapped to a negative.
func TestStatusErrorClampsRetryAfter(t *testing.T) {
	for _, c := range []struct {
		header string
		want   time.Duration
	}{
		{"", 0},
		{"0", 0},
		{"-3", 0},
		{"soon", 0},
		{"2", 2 * time.Second},
		{"3600", maxRetryAfter},
		{"3601", maxRetryAfter},
		{"9223372036", maxRetryAfter},
		{"9223372037", maxRetryAfter}, // × time.Second overflows int64
		{"99999999999999999999", maxRetryAfter},
	} {
		_, err := nodeAnswer(http.StatusServiceUnavailable, c.header, []byte(`{"error":"shedding"}`))
		var nse *nodeStatusError
		if !errors.As(err, &nse) || nse.retryAfter != c.want || nse.msg != "shedding" {
			t.Errorf("Retry-After %q: %#v, want a 503 status error with retryAfter %v and message \"shedding\"", c.header, err, c.want)
		}
	}
}

// FuzzNodeAnswer decodes fuzzed node answers (status, Retry-After, body)
// through request and statusError. It never panics and always closes the
// body; a non-2xx answer is a *nodeStatusError with the answer's status,
// a retryAfter in [0, maxRetryAfter] and a message read from at most 4 KB
// of body; a 2xx answer decodes, or its error names the node and the path.
func FuzzNodeAnswer(f *testing.F) {
	long := `{"error":"` + strings.Repeat("x", 5<<10) + `"}`
	for _, s := range []struct {
		status     int
		retryAfter string
		body       string
	}{
		{200, "", `{"results":[{"doc":3,"id":"d3","score":0.5}]}`},
		{429, "1", `{"error":"queue full"}`},
		{503, "2", `{"error":"compaction debt"}`},
		{503, "1", long},
		{200, "", long},
		{200, "", `{"results":[{"doc":3,"id":"d3`},
		{500, "", `{"error":"bo`},
		{502, "", "<html>bad gateway</html>"},
		{200, "", "not json"},
		{429, "9223372037", `{"error":"queue full"}`},
		{503, "99999999999999999999", ""},
	} {
		f.Add(s.status, s.retryAfter, []byte(s.body))
	}
	f.Fuzz(func(t *testing.T, status int, retryAfter string, body []byte) {
		if status < 100 || status > 999 {
			status = 100 + int(uint(status)%900)
		}
		ab, err := nodeAnswer(status, retryAfter, body)
		if !ab.closed {
			t.Errorf("status %d: the body was not closed", status)
		}
		if status/100 == 2 {
			if err != nil && (!strings.Contains(err.Error(), `"n0"`) || !strings.Contains(err.Error(), "/v1/search")) {
				t.Errorf("status %d: %v names neither the node nor the path", status, err)
			}
			return
		}
		var nse *nodeStatusError
		if !errors.As(err, &nse) || nse.code != status {
			t.Fatalf("status %d: %#v, want a status error", status, err)
		}
		if nse.retryAfter < 0 || nse.retryAfter > maxRetryAfter {
			t.Errorf("status %d, Retry-After %q: retryAfter %v", status, retryAfter, nse.retryAfter)
		}
		if ab.read > 4<<10 || len(nse.msg) > 4<<10 {
			t.Errorf("status %d: read %d B of the body for a %d B message", status, ab.read, len(nse.msg))
		}
	})
}
