package retrieval

// End-to-end disk-fault durability: the live index's WAL'd ingest path
// driven through a faultinject.FaultyFS. The contract under any fault
// schedule: an Add that returned nil is present after "crash" (abandon
// without checkpoint) + reopen + replay; an Add that errored may or
// may not be present (log-before-apply), but must never corrupt the
// log or the index.

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"syscall"
	"testing"

	"repro/internal/faultinject"
)

// buildWALIndex builds a 2-shard index, checkpoints it to data, and
// attaches a WAL in waldir through fsys.
func buildWALIndex(t *testing.T, data, waldir string, fsys faultinject.FS) *Index {
	t.Helper()
	ix, err := Build(largerCorpus(16), WithRank(3), WithShards(2), WithAutoCompact(false), WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.SaveDir(data); err != nil {
		t.Fatal(err)
	}
	if _, err := ix.AttachWALFS(waldir, fsys); err != nil {
		t.Fatal(err)
	}
	return ix
}

// TestAddTornWALWriteKeepsAckedDocs: a torn WAL append refuses the ack
// and the index recovers — later acked adds land cleanly and a reopen
// replays exactly the acked suffix.
func TestAddTornWALWriteKeepsAckedDocs(t *testing.T) {
	dir := t.TempDir()
	data, waldir := filepath.Join(dir, "data"), filepath.Join(dir, "wal")
	fs := faultinject.NewFaultyFS(faultinject.OS{}, 3)
	ix := buildWALIndex(t, data, waldir, fs)
	ctx := context.Background()

	acked := 0
	add := func(i int) error {
		_, err := ix.Add(ctx, []Document{{ID: fmt.Sprintf("live-%d", i), Text: "car engine maintenance manual"}})
		if err == nil {
			acked++
		}
		return err
	}
	if err := add(0); err != nil {
		t.Fatal(err)
	}
	fs.FailWrites(1, nil, true)
	if err := add(1); err == nil {
		t.Fatal("add acked over a torn WAL append")
	}
	fs.Clear()
	if err := add(2); err != nil {
		t.Fatalf("add after recovered tear: %v", err)
	}
	wantDocs := 16 + acked
	if ix.NumDocs() != wantDocs {
		t.Fatalf("live index holds %d docs, want %d", ix.NumDocs(), wantDocs)
	}
	ix.Close() // crash: no checkpoint since the base save

	re, err := OpenDir(data, WithAutoCompact(false))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	replayed, err := re.AttachWAL(waldir)
	if err != nil {
		t.Fatalf("replay after torn-write faults: %v", err)
	}
	if replayed != acked || re.NumDocs() != wantDocs {
		t.Fatalf("replayed %d docs into %d total, want %d into %d", replayed, re.NumDocs(), acked, wantDocs)
	}
}

// TestAddFsyncFaultNeverAcksThenRecovers: an fsync fault refuses acks
// (fail-stop) until a checkpoint rotates onto a fresh segment; acked
// documents from before and after the incident both survive reopen.
func TestAddFsyncFaultNeverAcksThenRecovers(t *testing.T) {
	dir := t.TempDir()
	data, waldir := filepath.Join(dir, "data"), filepath.Join(dir, "wal")
	fs := faultinject.NewFaultyFS(faultinject.OS{}, 5)
	ix := buildWALIndex(t, data, waldir, fs)
	ctx := context.Background()

	if _, err := ix.Add(ctx, []Document{{ID: "pre", Text: "stars and galaxies in deep space"}}); err != nil {
		t.Fatal(err)
	}
	fs.FailSyncs(1, syscall.EIO)
	if _, err := ix.Add(ctx, []Document{{ID: "dark", Text: "never acked"}}); err == nil {
		t.Fatal("add acked without a durable fsync")
	}
	fs.Clear()
	// The log is fail-stopped: ingest refuses until the operator (or the
	// checkpoint loop) rotates it.
	if _, err := ix.Add(ctx, []Document{{ID: "still-dark", Text: "refused"}}); err == nil {
		t.Fatal("add acked on a failed log")
	}
	if err := ix.Checkpoint(data); err != nil {
		t.Fatalf("recovery checkpoint: %v", err)
	}
	if _, err := ix.Add(ctx, []Document{{ID: "post", Text: "telescopes observing distant galaxies"}}); err != nil {
		t.Fatalf("add after recovery checkpoint: %v", err)
	}
	wantDocs := ix.NumDocs()
	ix.Close()

	re, err := OpenDir(data, WithAutoCompact(false))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if _, err := re.AttachWAL(waldir); err != nil {
		t.Fatalf("replay after fsync faults: %v", err)
	}
	if re.NumDocs() != wantDocs {
		t.Fatalf("reopened index holds %d docs, want %d", re.NumDocs(), wantDocs)
	}
	if got := re.DocID(wantDocs - 1); got != "post" {
		t.Fatalf("newest doc %q, want post", got)
	}
}

// TestCheckpointENOSPCKeepsPreviousGeneration: a checkpoint that runs
// out of disk fails without harming the previous checkpoint — the
// directory still opens at the old generation with the old corpus — and
// one whose directory fsync fails does not report success. Both entry
// points of the checkpoint writer are held to it: the whole-index save
// and the per-shard export a cluster deploy ships to its nodes.
func TestCheckpointENOSPCKeepsPreviousGeneration(t *testing.T) {
	for _, tc := range []struct {
		name  string
		docs  int // documents the first checkpoint holds
		first func(ix *Index, dir string) error
		again func(ix *Index, dir string, fsys faultinject.FS) error
	}{
		{"SaveDir", 14, (*Index).SaveDir,
			func(ix *Index, dir string, fsys faultinject.FS) error { return ix.sharded.SaveDirFS(dir, fsys) }},
		{"SaveShardDir", 7, func(ix *Index, dir string) error { return ix.SaveShardDir(0, dir) },
			func(ix *Index, dir string, fsys faultinject.FS) error { return ix.sharded.SaveShardDirFS(0, dir, fsys) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			data := filepath.Join(dir, "data")
			ix, err := Build(largerCorpus(14), WithRank(3), WithShards(2), WithAutoCompact(false), WithSeed(11))
			if err != nil {
				t.Fatal(err)
			}
			defer ix.Close()
			if err := tc.first(ix, data); err != nil {
				t.Fatal(err)
			}
			// Global 14 lands on shard 0, so the next checkpoint differs
			// from the first for either entry point.
			if _, err := ix.Add(context.Background(), []Document{{ID: "extra", Text: "car engine"}}); err != nil {
				t.Fatal(err)
			}
			reopen := func(context string, wantDocs int, wantOldGen bool) {
				t.Helper()
				re, err := OpenDir(data, WithAutoCompact(false))
				if err != nil {
					t.Fatalf("%s: directory no longer opens: %v", context, err)
				}
				defer re.Close()
				if re.NumDocs() != wantDocs || (re.Generation() == 0) != wantOldGen {
					t.Fatalf("%s: reopened at (gen %d, %d docs), want %d docs, first generation %v",
						context, re.Generation(), re.NumDocs(), wantDocs, wantOldGen)
				}
			}

			// Size one full save on a side directory, then sweep budgets
			// below it so the real save dies at many different points of its
			// write schedule: during a segment, the ids file, or the manifest.
			trial := faultinject.NewFaultyFS(faultinject.OS{}, 1)
			if err := tc.again(ix, filepath.Join(dir, "trial"), trial); err != nil {
				t.Fatal(err)
			}
			total := trial.BytesWritten()
			if total < 16 {
				t.Fatalf("trial checkpoint wrote only %d bytes", total)
			}
			step := total / 8
			if step == 0 {
				step = 1
			}
			for budget := int64(0); budget < total; budget += step {
				fs := faultinject.NewFaultyFS(faultinject.OS{}, budget)
				fs.DiskFullAfter(budget)
				if err := tc.again(ix, data, fs); err == nil {
					t.Fatalf("budget %d: checkpoint succeeded on a full disk", budget)
				}
				reopen(fmt.Sprintf("budget %d", budget), tc.docs, true)
			}

			// Success means the manifest switch is durable: with every
			// directory fsync failing the checkpoint must fail, having
			// switched to the complete new manifest.
			fs := faultinject.NewFaultyFS(faultinject.OS{}, 1)
			fs.FailSyncs(1, syscall.EIO)
			if err := tc.again(ix, data, fs); !errors.Is(err, faultinject.ErrInjected) {
				t.Fatalf("checkpoint with a failing directory fsync returned %v", err)
			}
			reopen("failed fsync", tc.docs+1, false)
			if err := tc.again(ix, data, faultinject.OS{}); err != nil {
				t.Fatal(err)
			}
			reopen("clean checkpoint", tc.docs+1, false)
		})
	}
}
