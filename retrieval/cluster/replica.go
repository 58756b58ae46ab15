package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
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

// A snapshot file gets at most pullAttempts transfers, pullBackoff apart
// and doubling; a cut one resumes from the last byte that landed.
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
// primary's checkpoint over GET /v1/replicate/{manifest,file}, then
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

	cur     atomic.Pointer[retrieval.Index]
	snaps   atomic.Int64           // snapshot pulls performed (names the snap dirs)
	snapDir atomic.Pointer[string] // the directory cur was opened from

	batches atomic.Int64
	applied atomic.Int64
	resumes atomic.Int64 // ranged re-fetches after a cut transfer
	lastErr atomic.Pointer[string]
}

// NewReplica prepares a replica of the node at primaryURL, keeping its
// local snapshots under dir. Call Bootstrap before serving.
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

// get runs one GET against the primary, returning the response body.
// A non-2xx status is returned as errStatus so callers can branch on
// the replication protocol's meaningful codes (404 mid-pull, 410 on a
// rotated tail).
func (r *Replica) get(ctx context.Context, path string) ([]byte, error) {
	ctx, cancel := context.WithTimeout(ctx, r.opts.NodeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.Primary()+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("cluster: replica: %s: %w", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
		return nil, &errStatus{path: path, code: resp.StatusCode}
	}
	return io.ReadAll(resp.Body)
}

// errStatus is a non-2xx replication response.
type errStatus struct {
	path string
	code int
}

func (e *errStatus) Error() string {
	return fmt.Sprintf("cluster: replica: %s: status %d", e.path, e.code)
}

func statusOf(err error) int {
	var es *errStatus
	if errors.As(err, &es) {
		return es.code
	}
	return 0
}

// Bootstrap pulls a full snapshot from the primary and opens it for
// serving. It retries a bounded number of times when a checkpoint on
// the primary races the pull (a manifest-named file answering 404).
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
	r.noteErr(err)
	return err
}

// pullSnapshot fetches the primary's checkpoint into a fresh local
// directory — every data file first, the manifest last, so a torn pull
// is never openable — then opens it and swaps it in as the serving
// index. The previous index (if any) is left to the garbage collector
// rather than closed: queries may still be draining on it, and a
// snapshot opens with compaction disabled, so it holds no goroutines.
// Its directory goes at once (mapped pages outlive the unlink, a streamed
// file was read whole); a failed pull removes its own.
func (r *Replica) pullSnapshot(ctx context.Context) (err error) {
	manBytes, err := r.get(ctx, "/v1/replicate/manifest")
	if err != nil {
		return err
	}
	man, err := shard.ParseManifest(manBytes)
	if err != nil {
		return fmt.Errorf("cluster: replica: primary manifest: %w", err)
	}
	if man.Shards != 1 {
		return fmt.Errorf("cluster: replica: primary serves a %d-shard index; replicas mirror 1-shard exports", man.Shards)
	}
	snap := filepath.Join(r.dir, fmt.Sprintf("snap-%d", r.snaps.Add(1)))
	if err := os.MkdirAll(snap, 0o777); err != nil {
		return err
	}
	defer func() {
		if err != nil {
			os.RemoveAll(snap)
		}
	}()
	for _, name := range append(man.Files(), "text.json") {
		if err := r.pullFile(ctx, name, filepath.Join(snap, name), uint64(man.Generation)); err != nil {
			return err
		}
	}
	if err := os.WriteFile(filepath.Join(snap, shard.ManifestName), manBytes, 0o666); err != nil {
		return err
	}
	ix, err := retrieval.OpenDir(snap, retrieval.WithAutoCompact(false))
	if err != nil {
		return fmt.Errorf("cluster: replica: opening snapshot: %w", err)
	}
	r.cur.Store(ix) // the old index: see the doc comment, never closed under draining queries
	if prev := r.snapDir.Swap(&snap); prev != nil {
		os.RemoveAll(*prev)
	}
	return nil
}

// pullFile streams one checkpoint file from the primary to dst,
// resuming a cut transfer with a Range request from the last byte that
// landed instead of restarting the whole file. Safe because
// generation-stamped data files never mutate in place; the mutable
// manifest.json/text.json are guarded by the X-Index-Generation header,
// which must keep matching wantGen across attempts — a change means a
// checkpoint raced the pull, and the whole snapshot restarts (the 404
// path Bootstrap already retries).
func (r *Replica) pullFile(ctx context.Context, name, dst string, wantGen uint64) error {
	f, err := os.Create(dst)
	if err != nil {
		return err
	}
	defer f.Close()
	var got int64
	var lastErr error
	for attempt := 0; attempt < pullAttempts; attempt++ {
		if attempt > 0 {
			// Linear-doubling backoff on the injected clock; ctx still
			// bounds the whole pull.
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-r.clock.After(pullBackoff << (attempt - 1)):
			}
			if got > 0 {
				r.resumes.Add(1)
			}
		}
		var err error
		got, err = r.fetchInto(ctx, f, name, got, wantGen)
		if err == nil {
			return nil
		}
		// Status errors are protocol answers (404 raced checkpoint, 416
		// bad resume already handled below) — no retry here; transport
		// errors retry from the offset reached.
		if statusOf(err) != 0 {
			return err
		}
		lastErr = err
	}
	return fmt.Errorf("cluster: replica: pulling %s: %w", name, lastErr)
}

// fetchInto runs one (possibly ranged) GET for a checkpoint file and
// appends the response to f, returning the new local offset. A 200
// answer to a ranged request (server without Range support, or the
// file changed) restarts the file from zero; a 416 means the local
// offset is past the primary's EOF — also a restart.
func (r *Replica) fetchInto(ctx context.Context, f *os.File, name string, got int64, wantGen uint64) (int64, error) {
	path := "/v1/replicate/file?name=" + name
	ctx, cancel := context.WithTimeout(ctx, r.opts.NodeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.Primary()+path, nil)
	if err != nil {
		return got, err
	}
	if got > 0 {
		req.Header.Set("Range", fmt.Sprintf("bytes=%d-", got))
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return got, fmt.Errorf("cluster: replica: %s: %w", path, err)
	}
	defer resp.Body.Close()
	if g, err := strconv.ParseUint(resp.Header.Get("X-Index-Generation"), 10, 64); err == nil && wantGen > 0 && g != wantGen {
		// A checkpoint replaced the one we are pulling: surface the same
		// status Bootstrap retries with a fresh manifest.
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
		return got, &errStatus{path: path, code: http.StatusNotFound}
	}
	switch resp.StatusCode {
	case http.StatusOK, http.StatusRequestedRangeNotSatisfiable:
		// Full body (or an unsatisfiable resume offset): restart the file.
		if err := f.Truncate(0); err != nil {
			return 0, err
		}
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			return 0, err
		}
		got = 0
		if resp.StatusCode == http.StatusRequestedRangeNotSatisfiable {
			io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
			return 0, fmt.Errorf("cluster: replica: %s: resume offset past EOF; restarting", path)
		}
	case http.StatusPartialContent:
		// Appending at got, exactly where the Range asked.
	default:
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
		return got, &errStatus{path: path, code: resp.StatusCode}
	}
	n, err := io.Copy(f, resp.Body)
	return got + n, err
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
	body, err := r.get(ctx, fmt.Sprintf("/v1/replicate/wal?from=%d", from))
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
		r.noteErr(err)
		return 0, err
	}
	var resp httpapi.ReplicateWALResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		r.noteErr(err)
		return 0, fmt.Errorf("cluster: replica: decoding wal tail: %w", err)
	}
	if len(resp.Docs) == 0 {
		return 0, nil
	}
	got, err := ix.Add(ctx, resp.Docs)
	if err != nil {
		r.noteErr(err)
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
// rounds on the replica's clock. Errors are recorded (see
// ReplicaStats.LastError) and retried on the next round; only ctx
// cancellation stops the loop.
func (r *Replica) Run(ctx context.Context) {
	for {
		select {
		case <-ctx.Done():
			return
		case <-r.clock.After(pollInterval):
			r.CatchUp(ctx)
		}
	}
}

func (r *Replica) noteErr(err error) {
	if err == nil {
		return
	}
	s := err.Error()
	r.lastErr.Store(&s)
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

// Generation returns the manifest generation of the snapshot the
// replica serves — the primary checkpoint it descends from.
func (r *Replica) Generation() uint64 {
	if ix := r.cur.Load(); ix != nil {
		return ix.Generation()
	}
	return 0
}

// ReplicaStats is the replica's observability snapshot.
type ReplicaStats struct {
	// Snapshots counts full snapshot pulls (bootstrap + every 410).
	Snapshots int64
	// Batches and DocsApplied count WAL-tail rounds that applied
	// documents, and the documents they applied (re-snapshot documents
	// included in DocsApplied).
	Batches     int64
	DocsApplied int64
	// ResumedPulls counts snapshot-file transfers resumed with a Range
	// request after a cut connection.
	ResumedPulls int64
	// LastError is the most recent catch-up error ("" when none has
	// occurred); it does not reset on success — it is a debugging
	// breadcrumb, not a health signal. Health is Stats().Ready +
	// staleness.
	LastError string
}

// ReplicaStats snapshots the replica's counters.
func (r *Replica) ReplicaStats() ReplicaStats {
	st := ReplicaStats{
		Snapshots:    r.snaps.Load(),
		Batches:      r.batches.Load(),
		DocsApplied:  r.applied.Load(),
		ResumedPulls: r.resumes.Load(),
	}
	if p := r.lastErr.Load(); p != nil {
		st.LastError = *p
	}
	return st
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
