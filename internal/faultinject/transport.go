package faultinject

// The network seam: Transport wraps an http.RoundTripper and imposes
// scripted latency, fabricated errors, and blackholes (partition) per
// (host, request class). The cluster router's HTTP client takes any
// RoundTripper, so chaos tests interpose a Transport without touching
// production code paths.

import (
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"
)

// Request classes group routes the way the serving tier shards its
// gates: a fault can target searches without touching replication, or
// probes without touching ingest.
const (
	ClassSearch    = "search"    // /v1/search, /v1/search/batch
	ClassDocs      = "docs"      // /v1/docs
	ClassReplicate = "replicate" // /v1/replicate/*
	ClassProbe     = "probe"     // /readyz, /healthz, /v1/status
	ClassOther     = "other"     // everything else
)

// ClassOf maps a URL path to its request class.
func ClassOf(path string) string {
	switch {
	case strings.HasPrefix(path, "/v1/search"):
		return ClassSearch
	case strings.HasPrefix(path, "/v1/docs"):
		return ClassDocs
	case strings.HasPrefix(path, "/v1/replicate/"):
		return ClassReplicate
	case path == "/readyz" || path == "/healthz" || path == "/v1/status":
		return ClassProbe
	default:
		return ClassOther
	}
}

// Rule scripts one fault on the Transport. A request matches when both
// selectors match (empty selector = any); the first matching rule in
// insertion order applies.
type Rule struct {
	// Host selects requests to this URL host ("127.0.0.1:8081"); empty
	// matches every host.
	Host string
	// Class selects one request class (ClassSearch, ...); empty matches
	// every class.
	Class string
	// Latency is imposed before the request proceeds (or before Err /
	// Drop take effect), waited on the Transport's clock.
	Latency time.Duration
	// Err, when non-nil, is returned instead of performing the request —
	// a connection-level failure as the http.Client would surface it.
	Err error
	// Drop, when true, blackholes the request: it blocks until the
	// request's context is done, the shape of a network partition (the
	// caller's timeout is what ends it, exactly as with a real one).
	Drop bool
	// Remaining, when positive, bounds how many requests this rule
	// affects before expiring; 0 means unlimited.
	Remaining int
}

// Transport is a wrapping http.RoundTripper applying scripted Rules.
// Rule matching and expiry are under a mutex, so a Transport is safe
// for concurrent requests; matching is exact (first rule wins), so a
// schedule of count-bounded rules is fully deterministic.
type Transport struct {
	// Inner performs the real requests; nil means
	// http.DefaultTransport.
	Inner http.RoundTripper
	// Clock times Latency waits; nil means Real.
	Clock Clock

	mu    sync.Mutex
	rules []*Rule
}

// SetRules replaces the fault script. The passed rules are used in
// place (count-bounded rules decrement their Remaining).
func (t *Transport) SetRules(rules ...*Rule) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.rules = rules
}

// Clear removes every rule; the Transport becomes transparent.
func (t *Transport) Clear() { t.SetRules() }

// match finds and consumes the first applicable rule, returning a
// snapshot of its fault (nil if no rule matches).
func (t *Transport) match(req *http.Request) *Rule {
	t.mu.Lock()
	defer t.mu.Unlock()
	class := ClassOf(req.URL.Path)
	for i, r := range t.rules {
		if r.Host != "" && r.Host != req.URL.Host {
			continue
		}
		if r.Class != "" && r.Class != class {
			continue
		}
		if r.Remaining > 0 {
			r.Remaining--
			if r.Remaining == 0 {
				t.rules = append(t.rules[:i:i], t.rules[i+1:]...)
			}
		}
		snap := *r
		return &snap
	}
	return nil
}

// RoundTrip implements http.RoundTripper: apply the first matching
// rule's fault, then (unless the fault consumed the request) delegate
// to Inner.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	inner := t.Inner
	if inner == nil {
		inner = http.DefaultTransport
	}
	r := t.match(req)
	if r == nil {
		return inner.RoundTrip(req)
	}
	clk := t.Clock
	if clk == nil {
		clk = Real
	}
	if r.Latency > 0 {
		select {
		case <-clk.After(r.Latency):
		case <-req.Context().Done():
			return nil, req.Context().Err()
		}
	}
	if r.Drop {
		<-req.Context().Done()
		return nil, req.Context().Err()
	}
	if r.Err != nil {
		return nil, fmt.Errorf("%w: %w", ErrInjected, r.Err)
	}
	return inner.RoundTrip(req)
}
