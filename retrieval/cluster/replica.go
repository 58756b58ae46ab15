package cluster

import (
	"context"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"sync/atomic"
	"time"

	"repro/internal/faultinject"
	"repro/internal/metrics"
	"repro/retrieval"
	"repro/retrieval/httpapi"
	"repro/retrieval/shard"
)

// ReplicaOptions configures a Replica; zero values pick the documented
// defaults.
type ReplicaOptions struct {
	// NodeTimeout bounds each request to the primary (default 10s — a
	// snapshot file pull moves real bytes).
	NodeTimeout time.Duration
	// Client is the HTTP client for primary requests.
	Client *http.Client
	// Clock is the replica's time source for the tail loop and pull
	// backoff (default faultinject.Real); chaos tests inject a
	// FakeClock.
	Clock faultinject.Clock
}

// Run tails the primary's WAL every pollInterval.
const pollInterval = 500 * time.Millisecond

// A snapshot gets at most pullAttempts transfers, pullBackoff apart and
// doubling; a cut one resumes from the last byte that landed.
const (
	pullAttempts = 4
	pullBackoff  = 100 * time.Millisecond
)

func (o ReplicaOptions) withDefaults() ReplicaOptions {
	if o.NodeTimeout <= 0 {
		o.NodeTimeout = 10 * time.Second
	}
	if o.Client == nil {
		o.Client = &http.Client{}
	}
	if o.Clock == nil {
		o.Clock = faultinject.Real
	}
	return o
}

// Replica mirrors one cluster node: it bootstraps by pulling the
// primary's newest checkpoint generation file over
// GET /v1/replicate/checkpoint, then
// keeps up by tailing the primary's write-ahead log
// (GET /v1/replicate/wal?from=<its own document count>). When the tail
// answers 410 Gone — a checkpoint on the primary rotated the records
// the replica still needed — it re-pulls a whole snapshot and resumes
// tailing from there.
//
// A Replica is also a serving node: it implements retrieval.Retriever
// (plus httpapi's freshness capability, EpochReporter) by delegating to
// its current local index, which is swapped atomically
// after a re-snapshot so queries never observe a half-applied state.
// Replayed documents flow through the ordinary ingest path of the
// local 1-shard index, so a caught-up replica serves bit-for-bit the
// scores its primary serves.
//
// Catch-up is deliberately pull-based and stateless on the primary: a
// replica that dies just falls behind; when it returns it either tails
// from where it stopped or, if too far behind, re-snapshots. Nothing
// on the primary tracks replica positions.
type Replica struct {
	primary atomic.Pointer[string]
	dir     string
	opts    ReplicaOptions
	client  *http.Client
	clock   faultinject.Clock

	cur   atomic.Pointer[retrieval.Index]
	snaps atomic.Int64 // snapshot pulls performed

	batches atomic.Int64
	applied atomic.Int64
	resumes atomic.Int64 // ranged re-fetches after a cut transfer
}

// NewReplica prepares a replica of the node at primaryURL, keeping its
// local snapshot in dir as one checkpoint generation file. Call Bootstrap
// before serving.
func NewReplica(primaryURL, dir string, opts ReplicaOptions) *Replica {
	r := &Replica{dir: dir, opts: opts.withDefaults()}
	r.primary.Store(&primaryURL)
	r.client = r.opts.Client
	r.clock = r.opts.Clock
	return r
}

// SetPrimary re-points the replica at a primary that moved (a restart
// on a new address, or a manifest change). Safe under a running tail
// loop; the next round uses the new address.
func (r *Replica) SetPrimary(url string) { r.primary.Store(&url) }

// Primary returns the primary base URL the replica follows.
func (r *Replica) Primary() string { return *r.primary.Load() }

// get runs one GET against the primary, decoding its JSON answer into
// out. A non-2xx status is a *nodeStatusError, so callers can branch on
// the replication protocol's meaningful codes (statusOf: 404 mid-pull,
// 410 on a rotated tail).
func (r *Replica) get(ctx context.Context, path string, out any) error {
	primary := r.Primary()
	return request(ctx, r.client, r.opts.NodeTimeout, primary, primary, path, nil, out)
}

// Bootstrap pulls a full snapshot from the primary and opens it for
// serving. It retries a bounded number of times when a checkpoint on
// the primary races the pull (the file it listed answering 404).
func (r *Replica) Bootstrap(ctx context.Context) error {
	const attempts = 3
	var err error
	for i := 0; i < attempts; i++ {
		if err = r.pullSnapshot(ctx); err == nil {
			return nil
		}
		if statusOf(err) != http.StatusNotFound {
			break // only a raced checkpoint is worth retrying
		}
	}
	return err
}

// pullSnapshot fetches the primary's newest checkpoint generation — one
// file — into the replica's directory, where it replaces the previous
// one as a save does (shard.Receive), then opens it with the primary's
// tiers (primaryTiers) and swaps it in as the serving index. The previous
// index is left to the garbage collector rather than closed: queries may
// still be draining on it, and a snapshot opens with compaction disabled,
// so it holds no goroutines. A failed pull leaves the directory as it
// was.
func (r *Replica) pullSnapshot(ctx context.Context) error {
	r.snaps.Add(1)
	opts, err := r.primaryTiers(ctx)
	if err != nil {
		return err
	}
	if _, err := shard.Receive(r.dir, func(f *os.File) error { return r.pullCheckpoint(ctx, f) }); err != nil {
		return err
	}
	ix, err := retrieval.OpenDir(r.dir, append(opts, retrieval.WithAutoCompact(false))...)
	if err != nil {
		return fmt.Errorf("cluster: replica: opening snapshot: %w", err)
	}
	if ix.NumShards() != 1 {
		ix.Close()
		return fmt.Errorf("cluster: replica: primary serves a %d-shard index; replicas mirror 1-shard exports", ix.NumShards())
	}
	r.cur.Store(ix) // the old index: see the doc comment, never closed under draining queries
	return nil
}

// primaryTiers is how the primary serves its tiers, read from its
// GET /v1/stats: the IVF cells and probe budget, and the int8 rerank
// factor. The replica opens each snapshot with them, so its default search
// takes the route, and returns the answers, its primary's does.
func (r *Replica) primaryTiers(ctx context.Context) ([]retrieval.Option, error) {
	var st retrieval.Stats
	if err := r.get(ctx, "/v1/stats", &st); err != nil {
		return nil, err
	}
	var opts []retrieval.Option
	if st.ANN != nil {
		opts = append(opts, retrieval.WithANN(st.ANN.NList, st.ANN.NProbe))
	}
	if st.Quant != nil {
		opts = append(opts, retrieval.WithQuantized(st.Quant.Beta))
	}
	return opts, nil
}

// pullCheckpoint streams the primary's newest checkpoint generation into
// f. A cut transfer resumes with a Range request from the last byte that
// landed, its If-Range the generation's ETag, so a checkpoint that
// replaced the file meanwhile answers 200 with the whole new one. Status
// errors are protocol answers (404: a raced checkpoint) and end the pull;
// transport errors retry, pullBackoff apart and doubling on the
// replica's clock.
func (r *Replica) pullCheckpoint(ctx context.Context, f *os.File) error {
	var etag string
	var err error
	for attempt := 0; attempt < pullAttempts; attempt++ {
		got, _ := f.Seek(0, io.SeekCurrent)
		if attempt > 0 {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-r.clock.After(pullBackoff << (attempt - 1)):
			}
			if got > 0 {
				r.resumes.Add(1)
			}
		}
		if etag, err = r.fetchInto(ctx, f, got, etag); err == nil || statusOf(err) != 0 {
			return err
		}
	}
	return fmt.Errorf("cluster: replica: pulling the checkpoint: %w", err)
}

// fetchInto runs one GET for the checkpoint, ranged from got when f holds
// that much of the file tagged etag, and appends the answer to f,
// returning the ETag of the file being pulled. A 200 (a first request, or
// a resume whose If-Range no longer matches) restarts f from zero; so does
// a 416, an offset past the primary's EOF, after which the pull retries.
func (r *Replica) fetchInto(ctx context.Context, f *os.File, got int64, etag string) (string, error) {
	const path = "/v1/replicate/checkpoint"
	ctx, cancel := context.WithTimeout(ctx, r.opts.NodeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.Primary()+path, nil)
	if err != nil {
		return etag, err
	}
	if got > 0 && etag != "" {
		req.Header.Set("Range", fmt.Sprintf("bytes=%d-", got))
		req.Header.Set("If-Range", etag)
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return etag, fmt.Errorf("cluster: replica: %s: %w", path, err)
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK, http.StatusRequestedRangeNotSatisfiable:
		if err := f.Truncate(0); err != nil {
			return "", err
		}
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			return "", err
		}
		if resp.StatusCode == http.StatusRequestedRangeNotSatisfiable {
			return "", fmt.Errorf("cluster: replica: %s: resume offset past EOF; restarting", path)
		}
		etag = resp.Header.Get("ETag")
	case http.StatusPartialContent: // appending at got, where the Range asked
	default:
		return etag, statusError(resp, r.Primary(), path)
	}
	_, err = io.Copy(f, resp.Body)
	return etag, err
}

// CatchUp performs one tail round: ask the primary for every document
// past the replica's current count and apply them through the local
// ingest path. A 410 means the primary's checkpoint rotated past us —
// re-snapshot and report how that went. Returns the number of
// documents applied.
func (r *Replica) CatchUp(ctx context.Context) (int, error) {
	ix := r.cur.Load()
	if ix == nil {
		return 0, fmt.Errorf("cluster: replica: not bootstrapped")
	}
	from := ix.NumDocs()
	var resp httpapi.ReplicateWALResponse
	err := r.get(ctx, fmt.Sprintf("/v1/replicate/wal?from=%d", from), &resp)
	if statusOf(err) == http.StatusGone {
		if err := r.Bootstrap(ctx); err != nil {
			return 0, err
		}
		applied := r.cur.Load().NumDocs() - from
		if applied < 0 {
			applied = 0
		}
		r.applied.Add(int64(applied))
		return applied, nil
	}
	if err != nil {
		return 0, err
	}
	if len(resp.Docs) == 0 {
		return 0, nil
	}
	got, err := ix.Add(ctx, resp.Docs)
	if err != nil {
		return 0, fmt.Errorf("cluster: replica: applying wal tail: %w", err)
	}
	if got != from {
		return 0, fmt.Errorf("cluster: replica: tail landed at %d, want %d", got, from)
	}
	r.batches.Add(1)
	r.applied.Add(int64(len(resp.Docs)))
	return len(resp.Docs), nil
}

// Run tails the primary until ctx ends, sleeping pollInterval between
// rounds on the replica's clock. A round's error is logged and the next
// round retries; only ctx cancellation stops the loop.
func (r *Replica) Run(ctx context.Context) {
	for {
		select {
		case <-ctx.Done():
			return
		case <-r.clock.After(pollInterval):
			if _, err := r.CatchUp(ctx); err != nil && ctx.Err() == nil {
				log.Printf("cluster: replica: catch-up from %s: %v", r.Primary(), err)
			}
		}
	}
}

// Index returns the replica's current serving index (nil before
// Bootstrap).
func (r *Replica) Index() *retrieval.Index { return r.cur.Load() }

// --- retrieval.Retriever and httpapi.EpochReporter, by delegation ---

var errNotBootstrapped = fmt.Errorf("cluster: replica: not bootstrapped")

// Query implements retrieval.Retriever against the current snapshot, so
// a replica serves every shape its index serves.
func (r *Replica) Query(ctx context.Context, q retrieval.Query) (retrieval.Answer, error) {
	ix := r.cur.Load()
	if ix == nil {
		return retrieval.Answer{}, errNotBootstrapped
	}
	return ix.Query(ctx, q)
}

// NumDocs implements retrieval.Retriever (0 before Bootstrap).
func (r *Replica) NumDocs() int {
	if ix := r.cur.Load(); ix != nil {
		return ix.NumDocs()
	}
	return 0
}

// Stats implements retrieval.Retriever: the snapshot's Stats, with Ready
// the replica's own — true once it serves a snapshot, whatever
// compaction the snapshot owes — which is what /readyz answers.
func (r *Replica) Stats() retrieval.Stats {
	ix := r.cur.Load()
	if ix == nil {
		return retrieval.Stats{Backend: "replica"}
	}
	st := ix.Stats()
	st.Ready = true
	return st
}

// Epoch implements the httpapi freshness capability. A replica's epoch
// is its local index's and is not comparable to the primary's; compare
// (Generation, NumDocs) instead.
func (r *Replica) Epoch() uint64 {
	if ix := r.cur.Load(); ix != nil {
		return ix.Epoch()
	}
	return 0
}

// Generation returns the checkpoint generation of the snapshot the
// replica serves — the primary checkpoint it descends from.
func (r *Replica) Generation() uint64 {
	if ix := r.cur.Load(); ix != nil {
		return ix.Generation()
	}
	return 0
}

// RegisterMetrics exports the replica's counters on reg under the
// lsi_replica_* namespace.
func (r *Replica) RegisterMetrics(reg *metrics.Registry) {
	reg.CounterFunc("lsi_replica_snapshots_total", "Full snapshot pulls (bootstrap and every 410-triggered re-snapshot).",
		func() float64 { return float64(r.snaps.Load()) })
	reg.CounterFunc("lsi_replica_batches_total", "WAL-tail rounds that applied documents.",
		func() float64 { return float64(r.batches.Load()) })
	reg.CounterFunc("lsi_replica_docs_applied_total", "Documents applied from the primary's WAL tail and re-snapshots.",
		func() float64 { return float64(r.applied.Load()) })
	reg.CounterFunc("lsi_replica_resumed_pulls_total", "Snapshot-file transfers resumed with a Range request.",
		func() float64 { return float64(r.resumes.Load()) })
	reg.GaugeFunc("lsi_replica_generation", "Manifest generation of the serving snapshot.",
		func() float64 { return float64(r.Generation()) })
	reg.GaugeFunc("lsi_replica_docs", "Documents in the serving snapshot.",
		func() float64 { return float64(r.NumDocs()) })
}
