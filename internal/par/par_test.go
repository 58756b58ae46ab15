package par

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// withProcs pins MaxProcs for the duration of a test so parallel paths are
// exercised deterministically on any machine.
func withProcs(t *testing.T, n int) {
	t.Helper()
	old := SetMaxProcs(n)
	t.Cleanup(func() { SetMaxProcs(old) })
}

// coverage records which indices a loop visited and how often.
func coverage(n int) []int64 { return make([]int64, n) }

func checkCovered(t *testing.T, seen []int64) {
	t.Helper()
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("index %d visited %d times, want exactly 1", i, c)
		}
	}
}

func TestForCoversRangeExactlyOnce(t *testing.T) {
	withProcs(t, 4)
	for _, n := range []int{1, 2, 3, 7, 64, 1000, 4097} {
		for _, grain := range []int{1, 2, 16, 1000, 5000} {
			seen := coverage(n)
			For(n, grain, func(lo, hi int) {
				if lo < 0 || hi > n || lo >= hi {
					t.Errorf("bad chunk [%d,%d) for n=%d", lo, hi, n)
					return
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt64(&seen[i], 1)
				}
			})
			checkCovered(t, seen)
		}
	}
}

func TestForZeroAndNegativeN(t *testing.T) {
	withProcs(t, 4)
	calls := 0
	For(0, 1, func(lo, hi int) { calls++ })
	For(-5, 1, func(lo, hi int) { calls++ })
	if calls != 0 {
		t.Fatalf("loop body ran %d times for empty ranges", calls)
	}
}

func TestForNBelowGrainRunsSerially(t *testing.T) {
	withProcs(t, 8)
	// n < grain ⇒ a single chunk ⇒ workers clamp to 1 ⇒ runs on the caller.
	var calls int // no atomics: the test itself asserts single-threadedness under -race
	For(10, 100, func(lo, hi int) {
		calls++
		if lo != 0 || hi != 10 {
			t.Errorf("single chunk is [%d,%d), want [0,10)", lo, hi)
		}
	})
	if calls != 1 {
		t.Fatalf("got %d chunks, want 1", calls)
	}
}

func TestForGrainOne(t *testing.T) {
	withProcs(t, 3)
	seen := coverage(17)
	For(17, 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			atomic.AddInt64(&seen[i], 1)
		}
	})
	checkCovered(t, seen)
}

// chunkRanges returns the [lo, hi) of every MapChunks partial, in order.
func chunkRanges(n, grain int) [][2]int {
	return MapChunks(n, grain, func(lo, hi int) [2]int { return [2]int{lo, hi} })
}

// TestMapChunksLayout holds the chunk layout every deterministic reduction
// rests on: fixed run to run, the ranges For runs, and one partial per
// chunk executed, in chunk order.
func TestMapChunksLayout(t *testing.T) {
	withProcs(t, 4)
	t.Run("Deterministic", func(t *testing.T) {
		first := chunkRanges(1003, 7)
		if len(first) <= 1 {
			t.Fatalf("expected multiple chunks, got %d", len(first))
		}
		for trial := 1; trial < 5; trial++ {
			got := chunkRanges(1003, 7)
			for c := range got {
				if got[c] != first[c] {
					t.Fatalf("trial %d: chunk %d = %v, want %v", trial, c, got[c], first[c])
				}
			}
		}
	})
	t.Run("MatchesFor", func(t *testing.T) {
		for _, n := range []int{0, 1, 100, 4097} {
			for _, grain := range []int{1, 64, 9999} {
				var mu sync.Mutex
				ran := map[[2]int]bool{}
				For(n, grain, func(lo, hi int) {
					mu.Lock()
					ran[[2]int{lo, hi}] = true
					mu.Unlock()
				})
				got := chunkRanges(n, grain)
				if len(got) != len(ran) {
					t.Fatalf("n=%d grain=%d: %d partials, For ran %d chunks", n, grain, len(got), len(ran))
				}
				for c, r := range got {
					if !ran[r] {
						t.Fatalf("n=%d grain=%d chunk %d: MapChunks range %v is not one For ran", n, grain, c, r)
					}
				}
			}
		}
	})
	t.Run("PartialCount", func(t *testing.T) {
		for _, n := range []int{0, 1, 5, 100, 1023, 1024, 1025} {
			for _, grain := range []int{1, 10, 2000} {
				var calls atomic.Int64
				got := MapChunks(n, grain, func(lo, hi int) [2]int {
					calls.Add(1)
					return [2]int{lo, hi}
				})
				if int(calls.Load()) != len(got) {
					t.Fatalf("n=%d grain=%d: %d chunks ran, %d partials", n, grain, calls.Load(), len(got))
				}
				next := 0 // partials in chunk order tile [0, n)
				for c, r := range got {
					if r[0] != next || r[1] <= r[0] {
						t.Fatalf("n=%d grain=%d: partial %d covers %v, want it to start at %d", n, grain, c, r, next)
					}
					next = r[1]
				}
				if next != max(n, 0) {
					t.Fatalf("n=%d grain=%d: partials cover [0, %d)", n, grain, next)
				}
			}
		}
	})
}

func TestChunkedReductionIsBitwiseDeterministic(t *testing.T) {
	withProcs(t, 4)
	// The pattern of a reduction with a large per-chunk accumulator: a
	// grain of ceil(n/MaxProcs), so at most MaxProcs partials, combined in
	// chunk order. The floating-point result must be bitwise-stable across
	// runs for a fixed MaxProcs.
	n := 100001
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = 1.0 / float64(i+1)
	}
	sum := func() float64 {
		var total float64
		for _, p := range MapChunks(n, (n+3)/4, func(lo, hi int) float64 {
			var s float64
			for i := lo; i < hi; i++ {
				s += xs[i]
			}
			return s
		}) {
			total += p
		}
		return total
	}
	first := sum()
	for trial := 0; trial < 10; trial++ {
		if got := sum(); got != first {
			t.Fatalf("trial %d: sum %.17g != first %.17g", trial, got, first)
		}
	}
}

func TestMapChunksReductionIsBitwiseDeterministic(t *testing.T) {
	withProcs(t, 4)
	n := 100001
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = 1.0 / float64(i+1)
	}
	sum := func() float64 {
		var total float64
		for _, p := range MapChunks(n, 1024, func(lo, hi int) float64 {
			var s float64
			for i := lo; i < hi; i++ {
				s += xs[i]
			}
			return s
		}) {
			total += p
		}
		return total
	}
	first := sum()
	for trial := 0; trial < 10; trial++ {
		if got := sum(); got != first {
			t.Fatalf("trial %d: sum %.17g != first %.17g", trial, got, first)
		}
	}
}

func TestPanicPropagates(t *testing.T) {
	withProcs(t, 4)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("panic did not propagate out of For")
		}
		wp, ok := r.(*WorkerPanic)
		if !ok {
			t.Fatalf("recovered %T, want *WorkerPanic", r)
		}
		if wp.Value != "boom" {
			t.Fatalf("panic value %v, want boom", wp.Value)
		}
		if len(wp.Stack) == 0 {
			t.Fatal("WorkerPanic carries no stack")
		}
		if wp.Error() == "" {
			t.Fatal("empty Error()")
		}
	}()
	For(10000, 1, func(lo, hi int) {
		if lo <= 5000 && 5000 < hi {
			panic("boom")
		}
	})
}

func TestPanicOnCallerChunkPropagates(t *testing.T) {
	withProcs(t, 1) // serial path: the panic happens inline on the caller
	defer func() {
		if recover() == nil {
			t.Fatal("serial-path panic did not propagate")
		}
	}()
	For(10, 1, func(lo, hi int) { panic("serial boom") })
}

func TestNestedForIsSafe(t *testing.T) {
	withProcs(t, 4)
	outer, inner := 32, 200
	seen := coverage(outer * inner)
	For(outer, 1, func(olo, ohi int) {
		for o := olo; o < ohi; o++ {
			o := o
			For(inner, 8, func(ilo, ihi int) {
				for i := ilo; i < ihi; i++ {
					atomic.AddInt64(&seen[o*inner+i], 1)
				}
			})
		}
	})
	checkCovered(t, seen)
}

func TestNestedForUnderConcurrentLoadDoesNotDeadlock(t *testing.T) {
	// Regression for a completion-tracking bug: a runner enqueued while
	// every pool worker was busy never executed, yet the loop waited on
	// it, deadlocking nested loops under load. Completion is now signalled
	// per chunk, so queued runners are never waited on. Hammer the pool
	// with nested loops from many goroutines; the old design locks up
	// here, the fixed one must drain within the timeout.
	withProcs(t, 2)
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for iter := 0; iter < 50; iter++ {
					For(64, 1, func(lo, hi int) {
						For(256, 16, func(lo, hi int) {})
					})
				}
			}()
		}
		wg.Wait()
	}()
	select {
	case <-finished:
	case <-time.After(60 * time.Second):
		t.Fatal("nested For under concurrent load did not complete (pool deadlock)")
	}
}

func TestNestedPanicIsNotDoubleWrapped(t *testing.T) {
	withProcs(t, 4)
	defer func() {
		r := recover()
		wp, ok := r.(*WorkerPanic)
		if !ok {
			t.Fatalf("recovered %T, want *WorkerPanic", r)
		}
		if wp.Value != "inner boom" {
			t.Fatalf("panic value %v (%T), want the original inner value", wp.Value, wp.Value)
		}
	}()
	For(4, 1, func(lo, hi int) {
		For(1000, 1, func(ilo, ihi int) {
			if ilo == 0 {
				panic("inner boom")
			}
		})
	})
}

func TestGrainFor(t *testing.T) {
	withProcs(t, 4)
	// Expensive items: grain 1, every item its own potential chunk.
	if g := GrainFor(1 << 20); g != 1 {
		t.Fatalf("GrainFor(1<<20) = %d, want 1", g)
	}
	// Cheap items: a small batch collapses to one serial chunk.
	g := GrainFor(100)
	if g <= 1 {
		t.Fatalf("GrainFor(100) = %d, want > 1", g)
	}
	if n := len(chunkRanges(16, g)); n != 1 {
		t.Fatalf("16 cheap items split into %d chunks, want 1 (serial)", n)
	}
	// Degenerate estimates clamp instead of panicking.
	if g := GrainFor(0); g < 1 {
		t.Fatalf("GrainFor(0) = %d", g)
	}
	if g := GrainFor(-5); g < 1 {
		t.Fatalf("GrainFor(-5) = %d", g)
	}
}

func TestPoolIsReusedAcrossCalls(t *testing.T) {
	withProcs(t, 4)
	// Warm the pool.
	For(10000, 1, func(lo, hi int) {})
	runtime.GC()
	base := runtime.NumGoroutine()
	for i := 0; i < 200; i++ {
		For(10000, 1, func(lo, hi int) {})
	}
	runtime.GC()
	after := runtime.NumGoroutine()
	// Workers are a fixed pool: 200 parallel loops must not leak goroutines.
	// Allow slack for test-harness goroutines coming and going.
	if after > base+poolSize {
		t.Fatalf("goroutines grew from %d to %d across 200 loops (pool size %d)", base, after, poolSize)
	}
}

func TestSetMaxProcsRoundTrip(t *testing.T) {
	old := SetMaxProcs(3)
	t.Cleanup(func() { SetMaxProcs(old) })
	if got := MaxProcs(); got != 3 {
		t.Fatalf("MaxProcs() = %d after SetMaxProcs(3)", got)
	}
	if prev := SetMaxProcs(0); prev != 3 {
		t.Fatalf("SetMaxProcs returned %d, want 3", prev)
	}
	if got := MaxProcs(); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("cleared override: MaxProcs() = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if prev := SetMaxProcs(-7); prev != 0 {
		t.Fatalf("negative SetMaxProcs returned %d, want 0", prev)
	}
	if got := MaxProcs(); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("negative override should clear: MaxProcs() = %d", got)
	}
}

func TestLayoutRespectsGrain(t *testing.T) {
	withProcs(t, 8)
	n, grain := 1000, 64
	For(n, grain, func(lo, hi int) {
		if hi-lo < grain && hi != n {
			t.Errorf("chunk [%d,%d) has %d items, below grain %d", lo, hi, hi-lo, grain)
		}
	})
}

func BenchmarkForOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		For(1<<16, 1024, func(lo, hi int) {
			for j := lo; j < hi; j++ {
				_ = j
			}
		})
	}
}
