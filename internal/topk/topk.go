// Package topk provides bounded top-k selection of retrieval matches —
// the replacement for "score everything, sort everything" on the query
// hot path. Ranking both backends share is the strict total order of
// Better: higher score first, score ties broken by lower document ID, so
// the top-k set of a scored corpus is unique and selection is independent
// of the order candidates are offered in. That order-independence is what
// lets the parallel scoring path keep one bounded heap per chunk and
// merge the partials afterward without changing results.
//
// A Heap is a plain slice with no internal allocation beyond capacity
// growth, so callers keep instances in sync.Pool scratch and Reset them
// per query; steady-state selection allocates nothing.
package topk

import "slices"

// Match is one scored document.
type Match struct {
	Doc   int
	Score float64
}

// Better reports whether a ranks strictly before b in retrieval order:
// higher score first, ties broken by smaller document ID. For distinct
// documents this is a strict total order — there are no incomparable
// pairs — which is what makes bounded selection deterministic.
func Better(a, b Match) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.Doc < b.Doc
}

// compare orders matches best-first for sorting.
func compare(a, b Match) int {
	if Better(a, b) {
		return -1
	}
	if Better(b, a) {
		return 1
	}
	return 0
}

// SortMatches sorts ms best-first in place (descending score, ascending
// document ID on ties) without allocating.
func SortMatches(ms []Match) {
	slices.SortFunc(ms, compare)
}

// Heap is a bounded selector keeping the k best matches offered so far.
// Internally it is a min-heap rooted at the worst kept match, so each
// offer against a full heap is one comparison in the common case (the
// candidate loses to the current worst) and O(log k) otherwise.
//
// The zero value is unusable; call Reset first. Heaps are not safe for
// concurrent use — the parallel scoring path (scan.Select) keeps one
// per chunk.
type Heap struct {
	k     int
	items []Match
}

// Reset prepares the heap to select the k best of a new candidate
// stream, retaining the backing storage. It panics if k < 1 (a caller
// asked for everything passes the candidate count).
func (h *Heap) Reset(k int) {
	if k < 1 {
		panic("topk: Reset k < 1")
	}
	h.k = k
	h.items = h.items[:0]
}

// Len returns the number of matches currently kept.
func (h *Heap) Len() int { return len(h.items) }

// Items returns the kept matches in heap order (shared storage, not
// sorted). Use AppendSorted for ranked output.
func (h *Heap) Items() []Match { return h.items }

// Offer considers one candidate, keeping it iff it ranks among the k
// best seen since Reset.
func (h *Heap) Offer(m Match) {
	if len(h.items) < h.k {
		h.items = append(h.items, m)
		h.siftUp(len(h.items) - 1)
		return
	}
	// Full: the candidate must beat the worst kept match to enter.
	if !Better(m, h.items[0]) {
		return
	}
	h.items[0] = m
	h.siftDown(0)
}

// Merge offers every match kept by other. Selection is order-insensitive
// under the strict total order, so merging per-chunk partial heaps in any
// order yields the same final set as a single serial scan.
func (h *Heap) Merge(other *Heap) {
	for _, m := range other.items {
		h.Offer(m)
	}
}

// AppendSorted appends the kept matches to dst best-first and empties the
// heap. It allocates only if dst lacks capacity.
func (h *Heap) AppendSorted(dst []Match) []Match {
	start := len(dst)
	dst = append(dst, h.items...)
	SortMatches(dst[start:])
	h.items = h.items[:0]
	return dst
}

// worse reports whether items[a] ranks after items[b] — the min-heap
// ordering (root is the worst kept match).
func (h *Heap) worse(a, b int) bool {
	return Better(h.items[b], h.items[a])
}

func (h *Heap) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.worse(i, parent) {
			return
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

func (h *Heap) siftDown(i int) {
	n := len(h.items)
	for {
		worst := i
		if l := 2*i + 1; l < n && h.worse(l, worst) {
			worst = l
		}
		if r := 2*i + 2; r < n && h.worse(r, worst) {
			worst = r
		}
		if worst == i {
			return
		}
		h.items[i], h.items[worst] = h.items[worst], h.items[i]
		i = worst
	}
}
