package cluster

// The test doubles of the router's and the replica's seams: FakeClock
// for their faultinject.Clock, and Transport, with its Rules, for their
// HTTP client. They are exported for the chaos suite (package
// cluster_test) and are compiled only into this package's tests.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
)

// FakeClock is a manually advanced faultinject.Clock for deterministic
// tests: time moves only when Advance is called, and every timer due at
// or before the new time fires during the call. The zero value is not
// usable; construct with NewFakeClock.
type FakeClock struct {
	mu      sync.Mutex
	cond    *sync.Cond
	now     time.Time
	waiters []struct {
		when time.Time
		ch   chan time.Time
	}
}

// NewFakeClock returns a FakeClock reading start.
func NewFakeClock(start time.Time) *FakeClock {
	c := &FakeClock{now: start}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// Now returns the fake clock's current time.
func (c *FakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// After returns a channel that fires when the clock has been advanced
// by at least d. A non-positive d fires immediately.
func (c *FakeClock) After(d time.Duration) <-chan time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	ch := make(chan time.Time, 1)
	if d <= 0 {
		ch <- c.now
		return ch
	}
	c.waiters = append(c.waiters, struct {
		when time.Time
		ch   chan time.Time
	}{c.now.Add(d), ch})
	c.cond.Broadcast()
	return ch
}

// Advance moves the clock forward by d and fires every pending timer
// whose deadline is now due, in deadline order. It never blocks on a
// receiver (timer channels are buffered).
func (c *FakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
	// Fire due timers in deadline order so multi-timer sequences are
	// deterministic.
	for {
		best := -1
		for i, w := range c.waiters {
			if w.when.After(c.now) {
				continue
			}
			if best == -1 || w.when.Before(c.waiters[best].when) {
				best = i
			}
		}
		if best == -1 {
			return
		}
		w := c.waiters[best]
		c.waiters = append(c.waiters[:best], c.waiters[best+1:]...)
		w.ch <- c.now
	}
}

// Waiters reports how many timers are pending — the hook deterministic
// tests use (via BlockUntil) to know a goroutine has parked on the
// clock before advancing it.
func (c *FakeClock) Waiters() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.waiters)
}

// BlockUntil blocks the caller until at least n timers are pending on
// the clock. It is how a test thread meets a goroutine at a known
// point: start the goroutine, BlockUntil(1), then Advance.
func (c *FakeClock) BlockUntil(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.waiters) < n {
		c.cond.Wait()
	}
}

// Rule scripts one fault on the Transport. A request matches when both
// selectors match (empty selector = any); the first matching rule in
// insertion order applies.
type Rule struct {
	// Host selects requests to this URL host ("127.0.0.1:8081"); empty
	// matches every host.
	Host string
	// Class selects one request class (faultinject.ClassSearch, ...);
	// empty matches every class.
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
	// Clock times Latency waits; nil means faultinject.Real.
	Clock faultinject.Clock

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
	class := faultinject.ClassOf(req.URL.Path)
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
		clk = faultinject.Real
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
		return nil, fmt.Errorf("%w: %w", faultinject.ErrInjected, r.Err)
	}
	return inner.RoundTrip(req)
}

func TestFakeClockAdvanceFiresTimersInOrder(t *testing.T) {
	c := NewFakeClock(time.Unix(0, 0))
	a := c.After(10 * time.Millisecond)
	b := c.After(5 * time.Millisecond)
	select {
	case <-a:
		t.Fatal("timer fired before Advance")
	case <-b:
		t.Fatal("timer fired before Advance")
	default:
	}
	c.Advance(7 * time.Millisecond)
	select {
	case <-b:
	default:
		t.Fatal("due timer did not fire")
	}
	select {
	case <-a:
		t.Fatal("undue timer fired")
	default:
	}
	c.Advance(3 * time.Millisecond)
	if got := (<-a); !got.Equal(time.Unix(0, int64(10*time.Millisecond))) {
		t.Fatalf("fired at %v", got)
	}
	if c.Waiters() != 0 {
		t.Fatalf("waiters = %d after all fired", c.Waiters())
	}
}

func TestFakeClockBlockUntilMeetsGoroutine(t *testing.T) {
	c := NewFakeClock(time.Unix(0, 0))
	done := make(chan struct{})
	go func() {
		<-c.After(time.Second)
		close(done)
	}()
	c.BlockUntil(1) // the goroutine has parked; Advance cannot race it
	c.Advance(time.Second)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("goroutine never released")
	}
}

func TestFakeClockNonPositiveAfterFiresImmediately(t *testing.T) {
	c := NewFakeClock(time.Unix(0, 0))
	select {
	case <-c.After(0):
	default:
		t.Fatal("After(0) did not fire immediately")
	}
}

func TestTransportRules(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()
	host := strings.TrimPrefix(srv.URL, "http://")

	tr := &Transport{Inner: http.DefaultTransport}
	connRefused := errors.New("connection refused")
	tr.SetRules(
		&Rule{Host: host, Class: faultinject.ClassSearch, Err: connRefused, Remaining: 2},
	)
	client := &http.Client{Transport: tr}

	// The first two search requests fail; the rule then expires.
	for i := 0; i < 2; i++ {
		_, err := client.Get(srv.URL + "/v1/search")
		if err == nil || !strings.Contains(err.Error(), "connection refused") {
			t.Fatalf("request %d: want injected error, got %v", i, err)
		}
	}
	if resp, err := client.Get(srv.URL + "/v1/search"); err != nil || resp.StatusCode != 200 {
		t.Fatalf("rule did not expire: %v", err)
	} else {
		resp.Body.Close()
	}

	// Class selectors don't leak: a docs rule leaves searches alone.
	tr.SetRules(&Rule{Class: faultinject.ClassDocs, Err: connRefused})
	if resp, err := client.Get(srv.URL + "/v1/search"); err != nil {
		t.Fatalf("search caught a docs-only fault: %v", err)
	} else {
		resp.Body.Close()
	}
	tr.Clear()
	if resp, err := client.Get(srv.URL + "/v1/docs"); err != nil {
		t.Fatalf("Clear left a rule armed: %v", err)
	} else {
		resp.Body.Close()
	}
}

func TestTransportDropBlocksUntilContextDone(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	defer srv.Close()
	tr := &Transport{}
	tr.SetRules(&Rule{Drop: true})
	client := &http.Client{Transport: tr}

	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/v1/search", nil)
	done := make(chan error, 1)
	go func() {
		_, err := client.Do(req)
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("blackholed request returned early: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blackholed request never released after cancel")
	}
}

func TestTransportLatencyOnFakeClock(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	defer srv.Close()
	clk := NewFakeClock(time.Unix(0, 0))
	tr := &Transport{Clock: clk}
	tr.SetRules(&Rule{Latency: time.Minute})
	client := &http.Client{Transport: tr}

	done := make(chan error, 1)
	go func() {
		resp, err := client.Get(srv.URL + "/v1/search")
		if resp != nil {
			resp.Body.Close()
		}
		done <- err
	}()
	clk.BlockUntil(1)
	select {
	case <-done:
		t.Fatal("request completed before the clock advanced")
	default:
	}
	clk.Advance(time.Minute)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("delayed request failed: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("request never completed after Advance")
	}
}
