package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"repro/retrieval"
	"repro/retrieval/httpapi"
)

// client is one connection to a server: its own transport capped at one
// connection, so "2 clients" is two sockets and nothing more.
type client struct {
	http *http.Client
	buf  bytes.Buffer
}

func newClient() *client {
	return &client{http: &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		},
	}}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// post sends one JSON body and returns the status and the response body
// (valid until the next call).
func (c *client) post(ctx context.Context, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := io.Copy(&c.buf, resp.Body); err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, c.buf.Bytes(), nil
}

// search is one /v1/search round trip. A transport error, a non-200 (sheds
// included) or an undecodable body is an error: a refused request misses.
func (c *client) search(ctx context.Context, base string, body []byte) ([]retrieval.Result, error) {
	code, data, err := c.post(ctx, base+"/v1/search", body)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", code, bytes.TrimSpace(data))
	}
	var resp httpapi.SearchResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		return nil, err
	}
	return resp.Results, nil
}

// tally counts what a phase attempted and what went wrong, keeping the
// first few reasons for the report.
type tally struct {
	attempted, failed int
	reasons           []string
}

func (t *tally) fail(format string, args ...any) {
	t.failed++
	if len(t.reasons) < 5 {
		t.reasons = append(t.reasons, fmt.Sprintf(format, args...))
	}
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	for _, r := range o.reasons {
		if len(t.reasons) < 5 {
			t.reasons = append(t.reasons, r)
		}
	}
}

// searchLoad is the closed-loop search traffic of one measured span.
type searchLoad struct {
	base    string
	clients int
	warmup  time.Duration
	span    time.Duration
	// next hands client c its next query; it is called from that client's
	// goroutine only.
	next func(c int) query
	// verify checks a 200 response beyond decoding; nil error = correct.
	verify func(q query, rs []retrieval.Result) error
}

// sample is one measured request.
type sample struct {
	at    time.Duration // when it was sent, from the start of the span
	latMS float64
	ok    bool
}

type loadResult struct {
	samples []sample // every request sent within the span, failed ones included
	tally   tally
}

// run drives the clients through the warm-up, which starts at t0, and the
// measured span. A request belongs to the span if it was sent within it;
// requests sent during the warm-up are made and checked but not counted.
func (l *searchLoad) run(ctx context.Context, t0 time.Time) loadResult {
	first := t0.Add(l.warmup)
	end := first.Add(l.span)
	results := make([]loadResult, l.clients)
	var wg sync.WaitGroup
	for c := 0; c < l.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := newClient()
			defer cl.close()
			res := &results[c]
			for ctx.Err() == nil && time.Now().Before(end) {
				q := l.next(c)
				sent := time.Now()
				rs, err := cl.search(ctx, l.base, q.body)
				lat := time.Since(sent)
				if err == nil {
					err = structurallySound(rs)
				}
				if err == nil && l.verify != nil {
					err = l.verify(q, rs)
				}
				if sent.Before(first) {
					continue
				}
				res.samples = append(res.samples, sample{at: sent.Sub(first),
					latMS: float64(lat) / float64(time.Millisecond), ok: err == nil})
				res.tally.attempted++
				if err != nil {
					res.tally.fail("search %d: %v", q.id, err)
				}
			}
		}(c)
	}
	wg.Wait()
	var out loadResult
	for c := range results {
		out.tally.add(results[c].tally)
		out.samples = append(out.samples, results[c].samples...)
	}
	return out
}

// zipfPicker draws positions of a fixed query set, Zipf(s) by rank.
func zipfPicker(seed int64, set []query) func() query {
	z := rand.NewZipf(rand.New(rand.NewSource(seed)), zipfS, 1, uint64(len(set)-1))
	return func() query { return set[z.Uint64()] }
}

// clock is the time source of the paced writer; tests substitute a fake.
type clock interface {
	Now() time.Time
	Sleep(time.Duration)
}

type realClock struct{}

func (realClock) Now() time.Time        { return time.Now() }
func (realClock) Sleep(d time.Duration) { time.Sleep(d) }

// lateAfter is how far past its due time a send may start before it counts
// as the generator running late.
const lateAfter = time.Millisecond

// writerResult is what the paced writer saw.
type writerResult struct {
	ackMS []float64 // due time → 2xx ack, acked batches only
	sent  int
	late  int // sends that started more than lateAfter after they were due
}

// pacedWriter is the open-loop writer: batch i is due at start + i·every
// whatever happened to the batches before it, and its latency runs from
// that due time, so a stall is charged to every batch it delays. One
// connection sends the batches in order; a batch still in flight when the
// next falls due makes the next one late.
func pacedWriter(clk clock, start time.Time, every time.Duration, until time.Time,
	measureFrom time.Time, send func(i int) error) writerResult {
	var r writerResult
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * every)
		if !due.Before(until) {
			return r
		}
		if wait := due.Sub(clk.Now()); wait > 0 {
			clk.Sleep(wait)
		}
		began := clk.Now()
		err := send(i)
		if due.Before(measureFrom) {
			continue
		}
		r.sent++
		if began.Sub(due) > lateAfter {
			r.late++
		}
		if err == nil {
			r.ackMS = append(r.ackMS, float64(clk.Now().Sub(due))/float64(time.Millisecond))
		}
	}
}
