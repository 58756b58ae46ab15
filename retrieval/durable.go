package retrieval

import (
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/faultinject"
	"repro/retrieval/wal"
)

// Durability: a sharded live index can attach a write-ahead log
// (retrieval/wal). With a WAL attached, every Add batch is framed,
// fsync'd, and only then applied and acked, so a crash at any instant —
// including SIGKILL between the ack and the next checkpoint — loses no
// acknowledged document: AttachWAL on the next boot replays exactly the
// suffix the newest checkpoint is missing. Checkpoint couples SaveDir
// with a WAL rotation so the log stays short and replay-after-
// checkpoint is exactly "what the checkpoint lacks".
//
// The log records raw document text (WALBatch), not folded vectors:
// replay pushes the documents back through the same deterministic
// pipeline/vocabulary/weighting, so a replayed index is the index the
// crash interrupted.

// WALBatch is the payload of one write-ahead-log record: the Add batch
// exactly as submitted, plus the global position its first document was
// assigned. Replay uses First to skip batches (or batch prefixes) that
// a later checkpoint already made durable.
type WALBatch struct {
	// First is the global document number assigned to Docs[0]; the
	// batch occupies [First, First+len(Docs)).
	First int `json:"first"`
	// Docs is the submitted batch, raw text and all.
	Docs []Document `json:"docs"`
}

// AttachWAL opens (creating if needed) the write-ahead log in dir,
// replays any records the index's current state is missing, and arms
// the log so every subsequent Add is appended and fsync'd before it is
// applied and acked. It returns the number of documents replayed.
//
// Call it after Build/OpenDir and before serving: replay mutates the
// index through the ordinary ingest path. Only sharded live indexes
// can attach a WAL (ErrNotSharded otherwise).
//
// One durability asymmetry is inherent to log-before-apply: a batch
// that was logged but whose apply then failed (e.g. the index was
// concurrently closed) is NOT acked to the caller, yet will be applied
// by replay on the next boot. Acked writes are never lost; failed
// writes may still land.
func (ix *Index) AttachWAL(dir string) (replayed int, err error) {
	return ix.AttachWALFS(dir, faultinject.OS{})
}

// AttachWALFS is AttachWAL with an explicit file system — the
// fault-injection seam (see wal.OpenFS). Production callers use
// AttachWAL; chaos tests interpose a faultinject.FaultyFS to script
// torn appends, fsync errors, and disk-full against the live ingest
// path and then prove no acked write is lost across a reopen.
func (ix *Index) AttachWALFS(dir string, fsys faultinject.FS) (replayed int, err error) {
	if !ix.Sharded() {
		return 0, fmt.Errorf("%w: only sharded live indexes support a WAL", ErrNotSharded)
	}
	if ix.wlog != nil {
		return 0, fmt.Errorf("retrieval: a WAL is already attached")
	}
	log, err := wal.OpenFS(dir, fsys)
	if err != nil {
		return 0, err
	}
	replayed, err = ix.replayWAL(log)
	if err != nil {
		log.Close()
		return replayed, err
	}
	ix.wlog = log
	return replayed, nil
}

// replayWAL applies every logged batch (or batch suffix) the index does
// not already hold.
func (ix *Index) replayWAL(log *wal.Log) (replayed int, err error) {
	err = log.Replay(func(p []byte) error {
		var b WALBatch
		if err := json.Unmarshal(p, &b); err != nil {
			return fmt.Errorf("retrieval: wal replay: decoding batch: %w", err)
		}
		if b.First < 0 || len(b.Docs) == 0 {
			return fmt.Errorf("retrieval: wal replay: malformed batch (first=%d, %d docs)", b.First, len(b.Docs))
		}
		have := ix.sharded.NumDocs()
		if b.First > have {
			return fmt.Errorf("retrieval: wal replay: log starts at document %d but index holds %d — missing an older WAL segment or checkpoint", b.First, have)
		}
		if b.First+len(b.Docs) <= have {
			return nil // fully covered by the checkpoint
		}
		sub := b.Docs[have-b.First:]
		first, err := ix.applyBatch(sub)
		if err != nil {
			return fmt.Errorf("retrieval: wal replay: %w", err)
		}
		if first != have {
			return fmt.Errorf("retrieval: wal replay: batch landed at %d, want %d", first, have)
		}
		replayed += len(sub)
		return nil
	})
	return replayed, err
}

// addDurable is Add's path when a WAL is attached: log, fsync, apply,
// ack — serialized so the logged First positions mirror the apply
// order exactly.
func (ix *Index) addDurable(docs []Document) (int, error) {
	ix.walMu.Lock()
	defer ix.walMu.Unlock()
	first := ix.sharded.NumDocs()
	payload, err := json.Marshal(WALBatch{First: first, Docs: docs})
	if err != nil {
		return 0, fmt.Errorf("retrieval: add: encoding wal record: %w", err)
	}
	if err := ix.wlog.Append(payload); err != nil {
		return 0, fmt.Errorf("retrieval: add: %w", err)
	}
	got, err := ix.applyBatch(docs)
	if err != nil {
		return 0, err
	}
	if got != first {
		return 0, fmt.Errorf("retrieval: add: batch landed at %d, logged at %d", got, first)
	}
	return first, nil
}

// Checkpoint persists the index to dir (SaveDir) and, if a WAL is
// attached, rotates it — atomically with respect to concurrent Adds, so
// no acked batch can fall between the snapshot and the rotation. After
// a checkpoint the WAL holds only writes newer than dir's manifest.
func (ix *Index) Checkpoint(dir string) error {
	ix.walMu.Lock()
	defer ix.walMu.Unlock()
	if err := ix.SaveDir(dir); err != nil {
		return err
	}
	if ix.wlog != nil {
		return ix.wlog.Rotate()
	}
	return nil
}

// ErrNoWAL reports TailWAL on an index with no write-ahead log attached
// (AttachWAL); httpapi surfaces it as 404 on /v1/replicate/wal.
var ErrNoWAL = errors.New("retrieval: no write-ahead log attached")

// ErrWALGone reports a TailWAL position the log no longer covers — the
// records before it were rotated away by a checkpoint. The caller (a
// replica tailing its primary) must re-pull a snapshot and tail from
// the snapshot's document count instead; httpapi surfaces it as 410
// Gone.
var ErrWALGone = fmt.Errorf("retrieval: wal no longer covers the requested position")

// TailWAL returns every logged document with global position >= from,
// in global order — the replica catch-up feed. A replica that holds
// [0, from) applies the returned batch and is caught up to this
// process's acked writes at the time of the call. An empty slice means
// already caught up; ErrWALGone means the log starts after from (a
// checkpoint rotated the needed records away) and the replica must
// re-snapshot. An index without a WAL (every unsharded one) returns
// ErrNoWAL.
func (ix *Index) TailWAL(from int) ([]Document, error) {
	if ix.wlog == nil {
		return nil, ErrNoWAL
	}
	if from < 0 {
		return nil, fmt.Errorf("retrieval: wal tail from %d, want >= 0", from)
	}
	// Serialize with Adds and checkpoints so the log contents and the
	// document count are read as one consistent snapshot.
	ix.walMu.Lock()
	defer ix.walMu.Unlock()
	var out []Document
	start := -1 // first global the log covers
	err := ix.wlog.Replay(func(p []byte) error {
		var b WALBatch
		if err := json.Unmarshal(p, &b); err != nil {
			return fmt.Errorf("retrieval: wal tail: decoding batch: %w", err)
		}
		if start == -1 {
			start = b.First
		}
		if b.First+len(b.Docs) <= from {
			return nil
		}
		skip := 0
		if b.First < from {
			skip = from - b.First
		}
		out = append(out, b.Docs[skip:]...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Coverage check: the log holds [start, start+total). A caller
	// behind start needs records a checkpoint already rotated away.
	if start == -1 {
		// Empty log: only a caller already at our document count is
		// covered (everything else predates the last rotation).
		if from < ix.sharded.NumDocs() {
			return nil, ErrWALGone
		}
		return nil, nil
	}
	if from < start {
		return nil, ErrWALGone
	}
	return out, nil
}

// Epoch returns the index-wide mutation epoch of a sharded live index
// (see shard.Index.Epoch): it advances after every published Add batch
// and compaction swap. Immutable indexes are permanently at 0. Serving
// stacks surface it as the X-Index-Epoch header so clients can observe
// local index motion; note epochs are NOT comparable across processes —
// compaction timing differs — so replication compares (Generation,
// NumDocs) instead.
func (ix *Index) Epoch() uint64 { return ix.sharded.Epoch() }

// Generation returns the manifest generation of the newest durable
// checkpoint of a sharded live index (see shard.Index.Generation);
// 0 for immutable indexes and for sharded indexes never saved.
func (ix *Index) Generation() uint64 { return ix.sharded.Generation() }

// SaveShardDir exports one shard of a sharded index as a standalone
// 1-shard index directory — manifest, segments, and the text layer —
// ready for a cluster node to Open and serve (see shard.SaveShardDir
// for the exactness guarantees). SaveShardDirs exports every shard.
func (ix *Index) SaveShardDir(s int, dir string) error {
	if !ix.Sharded() {
		return fmt.Errorf("%w: only sharded indexes export per-shard", ErrNotSharded)
	}
	if err := ix.sharded.SaveShardDir(s, dir); err != nil {
		return err
	}
	return ix.writeTextMeta(dir)
}

// SaveShardDirs exports every shard of the index under dir: shard s
// lands in dir/shard-<s>. The exports together hold exactly the
// index's corpus, and a router fanning over them merges to the same
// results this index serves (bitwise). An unsharded index has one
// shard, which SaveShardDir refuses.
func (ix *Index) SaveShardDirs(dir string) error {
	for s := 0; s < ix.sharded.NumShards(); s++ {
		if err := ix.SaveShardDir(s, shardDirName(dir, s)); err != nil {
			return err
		}
	}
	return nil
}

// shardDirName names shard s's export directory under dir.
func shardDirName(dir string, s int) string {
	return fmt.Sprintf("%s/shard-%d", dir, s)
}

// NumShards returns the shard count of a sharded index (1 for
// immutable indexes, which are a single partition by construction).
func (ix *Index) NumShards() int { return ix.sharded.NumShards() }
