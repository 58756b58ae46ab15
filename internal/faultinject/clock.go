// Package faultinject is the deterministic fault-injection substrate
// behind the chaos test suite and lsiserve's -chaos mode: every
// failure mode the serving tier must survive — slow nodes, flapping
// nodes, partitions, torn disk writes, fsync errors, disk-full — can
// be scripted and reproduced exactly, instead of waiting for real
// hardware to misbehave.
//
// Three seams, all dependency-free (stdlib only):
//
//   - Clock: an injectable time source. Production code takes a Clock
//     and defaults to Real; tests swap in a FakeClock whose Advance
//     fires pending timers deterministically, so circuit-breaker and
//     backoff state machines are tested without one wall-clock sleep.
//   - Transport: a wrapping http.RoundTripper that imposes scripted
//     latency, errors, and blackholes per (host, request class), for
//     client-side injection (the cluster router's node requests).
//   - FS / FaultyFS: a file-system seam for retrieval/wal and
//     retrieval/shard persistence that injects short writes, fsync
//     errors, and ENOSPC from a seeded schedule.
//
// The package also ships Injector, a server-side HTTP middleware with
// an admin endpoint (lsiserve -chaos, driven by lsiload -faults), so
// whole-process chaos runs can flap real nodes on a schedule.
//
// Determinism contract: every probabilistic decision is drawn from a
// seeded PRNG in operation order, so a given seed always yields the
// same decision sequence; rule- and count-based injection is exact.
package faultinject

import (
	"sync"
	"time"
)

// Clock is the injectable time source: Now for timestamps, After for
// timers. Production code holds a Clock and defaults to Real; tests
// inject a FakeClock and drive it explicitly.
type Clock interface {
	// Now returns the current time on this clock.
	Now() time.Time
	// After returns a channel that delivers the clock's time once d has
	// elapsed on it. The channel has capacity 1, so an un-received fire
	// never blocks the clock.
	After(d time.Duration) <-chan time.Time
}

// Real is the wall clock: Now and After delegate to package time.
var Real Clock = realClock{}

type realClock struct{}

func (realClock) Now() time.Time                         { return time.Now() }
func (realClock) After(d time.Duration) <-chan time.Time { return time.After(d) }

// FakeClock is a manually advanced Clock for deterministic tests: time
// moves only when Advance is called, and every timer due at or before
// the new time fires during the call. The zero value is not usable;
// construct with NewFakeClock.
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
