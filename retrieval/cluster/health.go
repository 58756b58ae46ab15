package cluster

// Active health: the router probes every manifest node in the
// background (GET /readyz) and folds the answers into an
// outlier-ejection view that hedging and write-routing consult before
// picking candidates. Probes are cheap and advisory — an ejected node is
// deprioritized, not banned: it stays last in the candidate order so a
// wrong ejection costs latency, never availability, and the per-node
// breakers (breaker.go) remain the authoritative fail-fast mechanism.

import (
	"context"
	"net/http"
	"sync"
	"sync/atomic"
)

// nodeHealth is the router's per-node view: the circuit breaker plus
// what the latest probe observed.
type nodeHealth struct {
	breaker *Breaker
	// out is whether the node is an outlier: its last probe failed or
	// answered not-ready. A node never probed is not one — ejection is
	// evidence-based.
	out atomic.Bool
}

// health returns (creating on first use) the node's health record.
// Records are keyed by URL, so a node that moves addresses starts
// fresh — exactly right, since the old address's failures say nothing
// about the new one.
func (r *Router) health(node Node) *nodeHealth {
	r.healthMu.Lock()
	defer r.healthMu.Unlock()
	h, ok := r.nodeHealth[node.URL]
	if !ok {
		h = &nodeHealth{breaker: NewBreaker(r.opts.Breaker)}
		r.nodeHealth[node.URL] = h
	}
	return h
}

// orderCandidates reorders one shard's candidate list for a fan-out or
// write: non-ejected nodes first (stable, so the manifest's
// primary-first preference is preserved within each class), ejected
// ones last. The slice is fresh; the manifest's is never mutated.
func (r *Router) orderCandidates(nodes []Node) []Node {
	out := make([]Node, 0, len(nodes))
	var ejected []Node
	for _, n := range nodes {
		if r.health(n).out.Load() {
			ejected = append(ejected, n)
		} else {
			out = append(out, n)
		}
	}
	return append(out, ejected...)
}

// ProbeOnce probes every node of the serving manifest once,
// concurrently, and updates the health view. It returns when every
// probe has completed or failed; errors are folded into the view, not
// returned — probing is a background activity.
func (r *Router) ProbeOnce(ctx context.Context) {
	ms := r.man.Load()
	var wg sync.WaitGroup
	for _, node := range ms.man.Nodes {
		wg.Add(1)
		go func(node Node) {
			defer wg.Done()
			r.probeNode(ctx, node)
		}(node)
	}
	wg.Wait()
}

// probeNode runs one /readyz probe and records the observation. The
// probe deliberately bypasses the breaker: it is the recovery signal
// for the ejection view and must keep flowing while requests fail
// fast. (Breaker recovery has its own half-open probe.)
func (r *Router) probeNode(ctx context.Context, node Node) {
	h := r.health(node)
	ctx, cancel := context.WithTimeout(ctx, r.opts.NodeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, node.URL+"/readyz", nil)
	if err != nil {
		r.recordHealth(h, nil, err)
		return
	}
	resp, err := r.client.Do(req)
	r.recordHealth(h, resp, err)
}

// recordHealth folds one probe outcome into the node's health record.
func (r *Router) recordHealth(h *nodeHealth, resp *http.Response, err error) {
	if err != nil {
		r.probeFails.Add(1)
		h.out.Store(true)
		return
	}
	resp.Body.Close()
	h.out.Store(resp.StatusCode != http.StatusOK)
}

// RunProbes probes every manifest node each ProbeInterval until ctx
// ends — the router's background health loop. Waits run on the
// router's clock, so chaos tests drive the loop deterministically.
func (r *Router) RunProbes(ctx context.Context) {
	for {
		select {
		case <-ctx.Done():
			return
		case <-r.clock.After(r.opts.ProbeInterval):
			r.ProbeOnce(ctx)
		}
	}
}

// healthSnapshot counts breaker and ejection states across the known
// nodes, for stats and metrics.
func (r *Router) healthSnapshot() (open, halfOpen, ejected int, trips int64) {
	r.healthMu.Lock()
	defer r.healthMu.Unlock()
	for _, h := range r.nodeHealth {
		switch h.breaker.State() {
		case BreakerOpen:
			open++
		case BreakerHalfOpen:
			halfOpen++
		}
		trips += h.breaker.Trips()
		if h.out.Load() {
			ejected++
		}
	}
	return
}
