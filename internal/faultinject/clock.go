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
//     and defaults to Real; the tests of retrieval/cluster swap in a
//     fake clock whose Advance fires pending timers deterministically,
//     so circuit-breaker and backoff state machines are tested without
//     one wall-clock sleep.
//   - The HTTP client: the cluster router and the replica take any
//     http.RoundTripper, so those tests interpose one that imposes
//     scripted latency, errors, and blackholes per (host, request
//     class, see ClassOf).
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

import "time"

// Clock is the injectable time source: Now for timestamps, After for
// timers. Production code holds a Clock and defaults to Real; tests
// inject a fake one and drive it explicitly.
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
