package cluster

// Per-node circuit breakers, the retry budget, and jittered backoff —
// the control loops that keep a degraded cluster degraded instead of
// melting. A breaker stops the router from burning timeouts against a
// node that keeps failing (closed → open on consecutive failures or
// windowed failure rate; open → half-open after a cooldown; one probe
// re-closes or re-opens it). The budget bounds retry amplification:
// retries spend from a bucket that refills at a fixed fraction of
// request traffic, so under total failure retries stay ≤ ~that
// fraction of attempts instead of multiplying load. Everything runs on
// an injected clock (internal/faultinject), so every transition is
// testable without a wall-clock sleep.

import (
	"math/rand"
	"sync"
	"time"

	"repro/internal/faultinject"
)

// BreakerState is a circuit breaker's position.
type BreakerState int32

const (
	// BreakerClosed passes requests and watches outcomes.
	BreakerClosed BreakerState = iota
	// BreakerOpen fails fast until the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen admits one probe request to test recovery.
	BreakerHalfOpen
)

// String names the state for logs and metrics.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return "unknown"
}

// A closed breaker trips after tripConsecutive failures in a row, or
// once the last tripWindow outcomes hold at least tripMinSamples and
// fail at tripRate or more — a single early failure is not a 100% rate.
const (
	tripConsecutive = 5
	tripRate        = 0.5
	tripWindow      = 20
	tripMinSamples  = 10
)

// Breaker is one node's circuit breaker. Allow asks whether a request
// may proceed; Record reports how an allowed request went. A denied
// request must NOT be recorded — fail-fast outcomes would keep the
// window saturated and the breaker could never observe recovery.
type Breaker struct {
	openFor time.Duration
	clock   faultinject.Clock

	mu       sync.Mutex
	state    BreakerState
	consec   int    // consecutive failures while closed
	window   []bool // rolling outcomes; true = failure
	wIdx     int
	wLen     int
	wFails   int
	openedAt time.Time
	probing  bool // a half-open probe is in flight

	trips int64
}

// NewBreaker returns a closed breaker that fails fast for openFor after
// each trip, timed by clock.
func NewBreaker(openFor time.Duration, clock faultinject.Clock) *Breaker {
	return &Breaker{openFor: openFor, clock: clock, window: make([]bool, tripWindow)}
}

// Allow reports whether a request may proceed now. An open breaker
// whose cooldown has elapsed moves to half-open and grants exactly one
// probe; further requests are denied until that probe is recorded.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if b.clock.Now().Sub(b.openedAt) < b.openFor {
			return false
		}
		b.state = BreakerHalfOpen
		b.probing = true
		return true
	default: // half-open
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
}

// Record reports an allowed request's outcome and drives the state
// machine: a half-open probe success re-closes (resetting the window),
// a probe failure re-opens for a fresh cooldown; while closed, either
// trip condition opens.
func (b *Breaker) Record(ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerHalfOpen:
		b.probing = false
		if ok {
			b.toClosed()
		} else {
			b.toOpen()
		}
	case BreakerClosed:
		// Rolling window for the rate condition.
		if b.window[b.wIdx] && b.wLen == len(b.window) {
			b.wFails--
		}
		b.window[b.wIdx] = !ok
		b.wIdx = (b.wIdx + 1) % len(b.window)
		if b.wLen < len(b.window) {
			b.wLen++
		}
		if !ok {
			b.wFails++
			b.consec++
		} else {
			b.consec = 0
		}
		rateTrips := b.wLen >= tripMinSamples &&
			float64(b.wFails)/float64(b.wLen) >= tripRate
		if b.consec >= tripConsecutive || rateTrips {
			b.toOpen()
		}
	case BreakerOpen:
		// A request allowed before the trip finishing late; outcome is
		// stale, ignore it.
	}
}

// toOpen transitions to open (caller holds b.mu).
func (b *Breaker) toOpen() {
	b.state = BreakerOpen
	b.openedAt = b.clock.Now()
	b.probing = false
	b.trips++
}

// toClosed transitions to closed with a clean window (caller holds b.mu).
func (b *Breaker) toClosed() {
	b.state = BreakerClosed
	b.consec, b.wIdx, b.wLen, b.wFails = 0, 0, 0, 0
	b.probing = false
}

// Cancel releases a claimed half-open probe slot when the probe's
// outcome is unknowable — the request was canceled mid-flight. The
// slot must be returned or the breaker wedges: half-open admits
// nothing while a probe is outstanding, and a probe that never
// records would deny every future request. No outcome is recorded;
// the next request may claim a fresh probe. Harmless in any other
// state.
func (b *Breaker) Cancel() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerHalfOpen {
		b.probing = false
	}
}

// Ready reports whether Allow would currently admit a request, with no
// side effects: no open → half-open transition, no probe slot claimed.
// For pre-flight checks that must not consume the probe — a claim the
// checker might never settle would wedge the breaker half-open.
func (b *Breaker) Ready() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		return b.clock.Now().Sub(b.openedAt) >= b.openFor
	default: // half-open
		return !b.probing
	}
}

// State returns the breaker's position. An open breaker past its
// cooldown still reports open — only an Allow moves it to half-open.
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Trips reports how many times the breaker has opened.
func (b *Breaker) Trips() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.trips
}

// RetryBudget is a token bucket bounding retry amplification: each
// request deposits Ratio tokens (capped at Burst), each retry
// withdraws one. Under 100% failure, retries converge to ≤ Ratio of
// attempts (+ the initial Burst), so a retry storm cannot multiply
// load onto an already-degraded cluster.
type RetryBudget struct {
	mu     sync.Mutex
	ratio  float64
	burst  float64
	tokens float64

	retries   int64
	exhausted int64
}

// NewRetryBudget returns a budget depositing ratio per request, capped
// at (and starting with) burst tokens.
func NewRetryBudget(ratio, burst float64) *RetryBudget {
	if ratio <= 0 {
		ratio = 0.1
	}
	if burst <= 0 {
		burst = 10
	}
	return &RetryBudget{ratio: ratio, burst: burst, tokens: burst}
}

// OnRequest deposits one request's worth of budget.
func (b *RetryBudget) OnRequest() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.tokens += b.ratio
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
}

// TryRetry withdraws one retry if the budget allows, reporting whether
// the caller may retry.
func (b *RetryBudget) TryRetry() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.tokens < 1 {
		b.exhausted++
		return false
	}
	b.tokens--
	b.retries++
	return true
}

// Retries and Exhausted report granted retries and budget denials.
func (b *RetryBudget) Retries() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.retries
}

// Exhausted reports how many retries the budget refused.
func (b *RetryBudget) Exhausted() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.exhausted
}

// backoff computes the jittered exponential delay before retry attempt
// (0-based): full jitter over base·2^attempt, capped at max — the
// spread that keeps synchronized retriers from re-stampeding a
// recovering node.
func backoff(attempt int, base, max time.Duration, rng *rand.Rand) time.Duration {
	d := base << attempt
	if d > max || d <= 0 {
		d = max
	}
	return time.Duration(rng.Int63n(int64(d))) + 1
}
