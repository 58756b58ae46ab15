// Package par is the shared parallel-execution substrate for the numeric
// kernels and the text pipeline in front of them: a small, dependency-free
// worker pool with a parallel-range primitive. The hot paths of the
// reproduction — tokenizing and counting a corpus (ir.Pipeline.TermDocMatrix),
// CSR matvec, dense matmul, the block products and panel reductions of
// randomized subspace iteration, batch query folding and cosine ranking —
// all fan out through For / MapChunks rather than spawning ad-hoc
// goroutines.
//
// Two properties matter more than raw speed:
//
//  1. Deterministic chunking. The split of [0, n) into chunks depends only
//     on n, grain, and MaxProcs() — never on scheduling. Each chunk has a
//     fixed index and a fixed half-open range, so reductions that
//     accumulate into per-chunk buffers and combine them in chunk order
//     (see MapChunks) produce bitwise-identical results run after run for
//     a fixed MaxProcs, even though chunks execute in arbitrary order on
//     arbitrary goroutines.
//
//  2. Nested-call safety. Workers are a fixed pool; submission never
//     blocks, the submitting goroutine always executes chunks itself, and
//     completion is tracked per chunk — never per helper — so a runner
//     that sits in the queue until after the loop finishes exits
//     immediately and nobody waits on it. A For inside a For therefore
//     cannot deadlock — at worst the inner call runs serially on its
//     caller when every pool worker is busy.
//
// Panics inside loop bodies are captured and re-raised on the calling
// goroutine as a *WorkerPanic carrying the original value and the worker's
// stack, so a crashing kernel fails the caller, not the process.
package par

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// maxProcsOverride, when positive, replaces runtime.GOMAXPROCS(0) as the
// worker limit. It exists so tests (and benchmarks pinning a worker count)
// can exercise the parallel paths deterministically on any machine.
var maxProcsOverride atomic.Int64

// MaxProcs returns the worker limit parallel loops currently run under:
// the SetMaxProcs override if one is set, else runtime.GOMAXPROCS(0).
func MaxProcs() int {
	if n := maxProcsOverride.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// SetMaxProcs overrides the worker limit used by For and MapChunks and
// returns the previous override (0 if none was set). n <= 0 clears the
// override. The chunk layout — and therefore the result of deterministic
// chunked reductions — is a pure function of (n, grain, MaxProcs()), so
// callers that need reproducible numerics pin this once up front.
// Concurrent mutation while loops are in flight changes layouts between
// calls, not within one.
func SetMaxProcs(n int) int {
	if n < 0 {
		n = 0
	}
	return int(maxProcsOverride.Swap(int64(n)))
}

// oversubscribe is how many chunks each worker gets on average. Uneven
// per-row costs (CSR rows have varying nonzero counts) balance better
// with more, smaller chunks; 4 is the usual compromise between balance
// and dispatch overhead.
const oversubscribe = 4

// layout is the deterministic split of [0, n) into equal-size chunks
// (the last may be short).
type layout struct {
	n, size, count int
}

// bounds returns the half-open range of chunk c.
func (l layout) bounds(c int) (lo, hi int) {
	lo = c * l.size
	hi = lo + l.size
	if hi > l.n {
		hi = l.n
	}
	return lo, hi
}

// makeLayout computes the chunk layout for n items with the given minimum
// chunk size. It depends only on its arguments and MaxProcs().
func makeLayout(n, grain int) layout {
	if n <= 0 {
		return layout{}
	}
	if grain < 1 {
		grain = 1
	}
	w := MaxProcs()
	size := (n + w*oversubscribe - 1) / (w * oversubscribe)
	if size < grain {
		size = grain
	}
	return layout{n: n, size: size, count: (n + size - 1) / size}
}

// minChunkWork is the approximate amount of work (flops, nonzeros
// touched) a chunk must carry before goroutine fan-out pays for itself.
const minChunkWork = 1 << 18

// GrainFor converts a per-item work estimate into a grain for For: the
// smallest chunk size whose total work reaches the fan-out threshold.
// Loops over coarse items — whole queries, sketch columns, documents to
// fold — pass it as grain so small batches of cheap items collapse to a
// single serial chunk while large or expensive batches fan out.
func GrainFor(workPerItem int) int {
	if workPerItem < 1 {
		workPerItem = 1
	}
	return (minChunkWork + workPerItem - 1) / workPerItem
}

// WorkerPanic is re-raised on the caller of For / MapChunks when a loop
// body panics on a worker goroutine. Value is the original panic value and
// Stack the panicking worker's stack trace.
type WorkerPanic struct {
	Value any
	Stack []byte
}

func (p *WorkerPanic) Error() string {
	return fmt.Sprintf("par: worker panic: %v\n%s", p.Value, p.Stack)
}

// pool is the fixed set of reusable worker goroutines, started lazily on
// the first parallel call. Submission is a non-blocking send: if no worker
// is idle the submitter simply keeps the work, which is what makes nested
// parallel calls safe.
var (
	poolOnce sync.Once
	poolSize int
	jobs     chan func()
)

func startPool() {
	poolSize = runtime.NumCPU()
	// The buffer lets submissions land before the worker goroutines have
	// parked at the receive, so the very first parallel region after
	// process start still fans out instead of silently running on the
	// caller alone.
	jobs = make(chan func(), poolSize)
	for i := 0; i < poolSize; i++ {
		go func() {
			for f := range jobs {
				f()
			}
		}()
	}
}

// For executes fn over [0, n) split into deterministic chunks of at least
// grain items, running chunks concurrently on up to MaxProcs goroutines
// (including the caller). fn must be safe to call concurrently on disjoint
// ranges. For n below ~2 chunks or MaxProcs == 1 the loop runs serially on
// the caller with identical chunk boundaries.
func For(n, grain int, fn func(lo, hi int)) {
	run(makeLayout(n, grain), func(_, lo, hi int) { fn(lo, hi) })
}

// MapChunks is the deterministic-reduction primitive: it splits [0, n)
// like For, runs body on each chunk concurrently, and returns the
// per-chunk results in chunk-index order. Combining the returned partials
// serially (in slice order) therefore has a grouping that is fixed for a
// fixed MaxProcs regardless of scheduling. The layout is computed exactly
// once, so the result length always matches the chunks executed even if
// SetMaxProcs moves concurrently.
func MapChunks[T any](n, grain int, body func(lo, hi int) T) []T {
	l := makeLayout(n, grain)
	out := make([]T, l.count)
	run(l, func(chunk, lo, hi int) { out[chunk] = body(lo, hi) })
	return out
}

func run(l layout, fn func(chunk, lo, hi int)) {
	if l.count == 0 {
		return
	}
	workers := MaxProcs()
	if workers > l.count {
		workers = l.count
	}
	if workers <= 1 {
		for c := 0; c < l.count; c++ {
			lo, hi := l.bounds(c)
			fn(c, lo, hi)
		}
		return
	}

	poolOnce.Do(startPool)

	r := &runner{l: l, fn: fn, done: make(chan struct{})}
	claim := r.claim
	// Hand up to workers-1 copies of claim to the pool; the non-blocking
	// send means a busy pool (e.g. inside a nested call) costs
	// parallelism, never progress. The caller's claim only returns once
	// every chunk has been claimed, so a queued copy that starts after
	// that exits immediately — completion is signalled per chunk by
	// runChunk, never by waiting on helpers.
	for i := 0; i < workers-1; i++ {
		select {
		case jobs <- claim:
		default:
		}
	}
	claim() // the caller always participates
	<-r.done

	if r.pval != nil {
		panic(r.pval)
	}
}

// runner is the state one parallel run shares between the caller and the
// pool's workers, in one allocation. As separate escaped variables the
// counters were tiny objects, and the memory profile records a tiny
// object only when it starts a new tiny block, which depends on the
// processor the call runs on: a run's profiled allocation count followed
// scheduling.
type runner struct {
	l        layout
	fn       func(chunk, lo, hi int)
	next     atomic.Int64
	finished atomic.Int64
	aborted  atomic.Bool
	done     chan struct{}
	pmu      sync.Mutex
	pval     *WorkerPanic
}

// claim runs chunks until every chunk has been claimed.
func (r *runner) claim() {
	for {
		c := r.next.Add(1) - 1
		if c >= int64(r.l.count) {
			return
		}
		r.runChunk(int(c))
	}
}

// runChunk runs chunk c unless an earlier chunk panicked, records the
// first panic, and closes done after the last chunk.
func (r *runner) runChunk(c int) {
	defer func() {
		if v := recover(); v != nil {
			r.aborted.Store(true)
			r.pmu.Lock()
			if r.pval == nil {
				if wp, ok := v.(*WorkerPanic); ok {
					r.pval = wp // a nested loop already wrapped it
				} else {
					r.pval = &WorkerPanic{Value: v, Stack: debug.Stack()}
				}
			}
			r.pmu.Unlock()
		}
		// Every claimed chunk reports completion exactly once, panic
		// or not; the last one releases the caller.
		if r.finished.Add(1) == int64(r.l.count) {
			close(r.done)
		}
	}()
	if !r.aborted.Load() {
		lo, hi := r.l.bounds(c)
		r.fn(c, lo, hi)
	}
}
