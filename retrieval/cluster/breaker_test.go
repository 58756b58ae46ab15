package cluster

// Breaker and retry-budget state machines on an injected clock — every
// transition is driven by explicit Advance calls, no wall-clock sleep
// calibrates any assertion.

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/faultinject"
)

const testOpenFor = 5 * time.Second

func testBreaker(clk faultinject.Clock) *Breaker {
	return NewBreaker(testOpenFor, clk)
}

// TestBreakerConsecutiveTrip: closed → open on a failure run, fail-fast
// while open, half-open probe after the cooldown, re-close on success.
func TestBreakerConsecutiveTrip(t *testing.T) {
	clk := faultinject.NewFakeClock(time.Unix(0, 0))
	b := testBreaker(clk)
	for i := 0; i < tripConsecutive; i++ {
		if !b.Allow() {
			t.Fatalf("closed breaker denied request %d", i)
		}
		b.Record(false)
	}
	if b.State() != BreakerOpen || b.Trips() != 1 {
		t.Fatalf("after %d consecutive failures: state %v, trips %d", tripConsecutive, b.State(), b.Trips())
	}
	if b.Allow() {
		t.Fatal("open breaker admitted a request before the cooldown")
	}
	clk.Advance(testOpenFor)
	if !b.Allow() {
		t.Fatal("cooled-down breaker refused the half-open probe")
	}
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state %v, want half-open", b.State())
	}
	if b.Allow() {
		t.Fatal("half-open breaker admitted a second probe")
	}
	b.Record(true)
	if b.State() != BreakerClosed {
		t.Fatalf("probe success left state %v", b.State())
	}
	// The window reset with the close: one new failure must not re-trip.
	b.Record(false)
	if b.State() != BreakerClosed {
		t.Fatal("single failure after recovery re-tripped the breaker")
	}
}

// TestBreakerRateTrip: non-consecutive failures trip via the windowed
// rate once tripMinSamples is met.
func TestBreakerRateTrip(t *testing.T) {
	clk := faultinject.NewFakeClock(time.Unix(0, 0))
	b := testBreaker(clk)
	// Alternate success/failure: never 2 in a row, but 50% failing.
	for i := 0; i < tripWindow; i++ {
		if b.State() == BreakerOpen {
			break
		}
		b.Allow()
		b.Record(i%2 == 0)
		if i < tripMinSamples-1 && b.State() != BreakerClosed {
			t.Fatalf("tripped at sample %d, before tripMinSamples", i)
		}
	}
	if b.State() != BreakerOpen {
		t.Fatalf("50%% failure rate never tripped: state %v", b.State())
	}
}

// TestBreakerHalfOpenFailureReopens: a failed probe starts a fresh
// cooldown; the breaker keeps cycling until a probe succeeds.
func TestBreakerHalfOpenFailureReopens(t *testing.T) {
	clk := faultinject.NewFakeClock(time.Unix(0, 0))
	b := testBreaker(clk)
	for i := 0; i < tripConsecutive; i++ {
		b.Allow()
		b.Record(false)
	}
	clk.Advance(testOpenFor)
	if !b.Allow() {
		t.Fatal("no probe after cooldown")
	}
	b.Record(false)
	if b.State() != BreakerOpen || b.Trips() != 2 {
		t.Fatalf("failed probe: state %v, trips %d, want open, 2", b.State(), b.Trips())
	}
	if b.Allow() {
		t.Fatal("re-opened breaker admitted a request without a new cooldown")
	}
	clk.Advance(testOpenFor)
	if !b.Allow() {
		t.Fatal("no probe after second cooldown")
	}
	b.Record(true)
	if b.State() != BreakerClosed {
		t.Fatalf("state %v after successful probe", b.State())
	}
}

// TestBreakerDeniedRequestsNotRecorded: fail-fast denials must not feed
// the window, or an open breaker could never observe recovery.
func TestBreakerDeniedRequestsNotRecorded(t *testing.T) {
	clk := faultinject.NewFakeClock(time.Unix(0, 0))
	b := testBreaker(clk)
	for i := 0; i < tripConsecutive; i++ {
		b.Allow()
		b.Record(false)
	}
	for i := 0; i < 100; i++ {
		if b.Allow() {
			t.Fatal("open breaker admitted a request")
		}
	}
	clk.Advance(testOpenFor)
	if !b.Allow() {
		t.Fatal("denials poisoned the breaker: no probe after cooldown")
	}
	b.Record(true)
	if b.State() != BreakerClosed {
		t.Fatalf("state %v, want closed", b.State())
	}
}

// TestRetryBudgetBoundsAmplification is the acceptance bound: under
// 100% failure with every request wanting maxRetries retries, granted
// retries stay within ratio×requests + burst.
func TestRetryBudgetBoundsAmplification(t *testing.T) {
	const (
		ratio    = 0.1
		burst    = 10.0
		requests = 2000
		maxTries = 3 // retries wanted per failing request
	)
	b := NewRetryBudget(ratio, burst)
	granted := 0
	for i := 0; i < requests; i++ {
		b.OnRequest()
		for a := 0; a < maxTries; a++ {
			if b.TryRetry() {
				granted++
			}
		}
	}
	bound := int(ratio*requests + burst)
	if granted > bound {
		t.Fatalf("%d retries granted for %d failing requests, bound %d", granted, requests, bound)
	}
	// The budget is a throttle, not a ban: a healthy fraction is granted.
	if granted < bound/2 {
		t.Fatalf("only %d retries granted, bound %d — budget over-throttles", granted, bound)
	}
	if b.Retries() != int64(granted) {
		t.Fatalf("Retries() = %d, granted %d", b.Retries(), granted)
	}
	if b.Exhausted() != int64(requests*maxTries-granted) {
		t.Fatalf("Exhausted() = %d, want %d", b.Exhausted(), requests*maxTries-granted)
	}
}

// TestBackoffJitterBounds: full jitter stays in (0, cap] and the cap
// respects retryMaxDelay even when the exponential overflows.
func TestBackoffJitterBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	base, hi := 25*time.Millisecond, 500*time.Millisecond
	for attempt := 0; attempt < 64; attempt++ {
		ceil := base << attempt
		if ceil > hi || ceil <= 0 {
			ceil = hi
		}
		for i := 0; i < 100; i++ {
			d := backoff(attempt, base, hi, rng)
			if d <= 0 || d > ceil {
				t.Fatalf("attempt %d: backoff %v outside (0, %v]", attempt, d, ceil)
			}
		}
	}
}

// TestBreakerCancelReleasesProbe: a half-open probe whose outcome is
// unknowable (request canceled mid-flight) must return the slot, or
// the breaker wedges — denying everything forever with no probe left
// to settle.
func TestBreakerCancelReleasesProbe(t *testing.T) {
	clk := faultinject.NewFakeClock(time.Unix(0, 0))
	b := testBreaker(clk)
	for i := 0; i < tripConsecutive; i++ {
		b.Allow()
		b.Record(false)
	}
	clk.Advance(testOpenFor)
	if !b.Allow() {
		t.Fatal("post-cooldown probe denied")
	}
	if b.Allow() {
		t.Fatal("second request admitted while the probe is in flight")
	}
	b.Cancel() // the probe was canceled, not answered
	if b.State() != BreakerHalfOpen {
		t.Fatalf("cancel changed state to %v, want half-open", b.State())
	}
	if !b.Allow() {
		t.Fatal("breaker wedged: canceled probe never released its slot")
	}
	b.Record(true)
	if b.State() != BreakerClosed {
		t.Fatalf("fresh probe success left state %v", b.State())
	}
	// In any other state Cancel is a no-op.
	b.Cancel()
	if b.State() != BreakerClosed || !b.Allow() {
		t.Fatal("cancel on a closed breaker had an effect")
	}
}

// TestBreakerReadyHasNoSideEffects: Ready mirrors Allow's verdict but
// claims nothing — repeated Ready calls on an expired-cooldown or
// half-open breaker neither transition it nor consume the probe.
func TestBreakerReadyHasNoSideEffects(t *testing.T) {
	clk := faultinject.NewFakeClock(time.Unix(0, 0))
	b := testBreaker(clk)
	if !b.Ready() {
		t.Fatal("closed breaker not ready")
	}
	for i := 0; i < tripConsecutive; i++ {
		b.Allow()
		b.Record(false)
	}
	if b.Ready() {
		t.Fatal("open breaker inside its cooldown reported ready")
	}
	clk.Advance(testOpenFor)
	for i := 0; i < 3; i++ {
		if !b.Ready() {
			t.Fatalf("ready call %d after cooldown: denied", i)
		}
	}
	if b.State() != BreakerOpen {
		t.Fatalf("ready transitioned the breaker to %v", b.State())
	}
	if !b.Allow() { // the real request claims the probe...
		t.Fatal("allow denied after ready said yes")
	}
	if b.Ready() { // ...and ready sees the claimed slot
		t.Fatal("ready ignored an in-flight probe")
	}
	b.Record(true)
	if b.State() != BreakerClosed || !b.Ready() {
		t.Fatalf("probe success: state %v", b.State())
	}
}
