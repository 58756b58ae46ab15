// Package wal implements the crash-safe write-ahead log behind the
// live index's ingest durability story: every accepted Add/AddBatch is
// framed, CRC-protected, and fsync'd to disk before the caller is
// acked, so a crash at any instant loses no acknowledged write.
//
// Layout:
//
//	wal-dir/
//	  wal-0000000000000000.log   ← oldest segment
//	  wal-0000000000000001.log   ← active segment (appends go here)
//
// Append frames an opaque payload as [uvarint length | crc32c |
// payload], writes it to the active segment, and fsyncs before
// returning. The payload's meaning belongs to the caller (the
// retrieval layer logs ingest batches).
//
// Replay streams every record of every segment, oldest first. A torn
// tail — an incomplete final frame, the signature of a crash
// mid-append — is tolerated and truncated away on the next Open; a CRC
// mismatch or malformed frame anywhere else is corruption and fails
// with a descriptive error, never a panic (ScanRecords is fuzzed).
//
// Rotate starts a fresh segment and deletes the older ones. Callers
// rotate immediately after persisting a checkpoint (SaveDir), so the
// log only ever holds writes newer than the newest checkpoint and
// replay-after-checkpoint is exactly "what the checkpoint is missing".
//
// A Log serializes its own mutations; Append/Rotate/Replay are safe to
// call from concurrent goroutines.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/faultinject"
)

// ErrCorrupt reports a WAL segment with a malformed or CRC-failing
// record before its final frame — damage Replay cannot distinguish from
// data loss, as opposed to a torn tail (which is expected after a crash
// and silently truncated).
var ErrCorrupt = errors.New("wal: corrupt record")

// MaxRecordBytes bounds a single record's payload (64 MiB). The bound
// exists so a corrupt length prefix cannot drive an unbounded
// allocation; real ingest batches are orders of magnitude smaller.
const MaxRecordBytes = 64 << 20

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// segName names the numbered segment files.
func segName(n uint64) string { return fmt.Sprintf("wal-%016x.log", n) }

// parseSegName extracts the segment number, reporting ok=false for
// files that are not WAL segments.
func parseSegName(name string) (uint64, bool) {
	var n uint64
	if _, err := fmt.Sscanf(name, "wal-%016x.log", &n); err != nil {
		return 0, false
	}
	if segName(n) != name {
		return 0, false
	}
	return n, true
}

// Log is an append-only record log in a directory of numbered segment
// files. Open/Append/Replay/Rotate are safe for concurrent use.
type Log struct {
	dir  string
	fsys faultinject.FS

	mu     sync.Mutex
	f      faultinject.File // active segment, opened for append
	active uint64           // active segment number
	off    int64            // durable bytes in the active segment
	broken error            // first unrecoverable append fault (fail-stop)
	closed bool
}

// Open opens (creating if needed) the write-ahead log in dir and
// prepares its newest segment for appending. A torn final record left
// by a crash mid-append is truncated away; corruption earlier in any
// segment fails the open.
func Open(dir string) (*Log, error) { return OpenFS(dir, faultinject.OS{}) }

// OpenFS is Open with an explicit file system — the fault-injection
// seam. Every durability-relevant operation the log performs (segment
// writes, fsyncs, truncation, rotation) goes through fsys, so tests
// interpose a faultinject.FaultyFS to script torn writes, fsync
// errors, and disk-full against the real record format.
func OpenFS(dir string, fsys faultinject.FS) (*Log, error) {
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: open: %w", err)
	}
	l := &Log{dir: dir, fsys: fsys}
	segs, err := l.listSegments()
	if err != nil {
		return nil, err
	}
	if len(segs) == 0 {
		if err := l.startSegment(0); err != nil {
			return nil, err
		}
		return l, nil
	}
	// Verify every segment now, truncating a torn tail on the newest
	// (crash mid-append) — older segments must be fully intact.
	var activeLen int64
	for i, n := range segs {
		path := filepath.Join(dir, segName(n))
		data, err := fsys.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("wal: open: %w", err)
		}
		good, err := ScanRecords(data, func([]byte) error { return nil })
		if err != nil {
			return nil, fmt.Errorf("wal: open %s: %w", segName(n), err)
		}
		if good < len(data) {
			if i != len(segs)-1 {
				return nil, fmt.Errorf("wal: open %s: %w: torn record in a non-final segment", segName(n), ErrCorrupt)
			}
			if err := fsys.Truncate(path, int64(good)); err != nil {
				return nil, fmt.Errorf("wal: open: truncating torn tail: %w", err)
			}
		}
		activeLen = int64(good)
	}
	active := segs[len(segs)-1]
	f, err := fsys.OpenFile(filepath.Join(dir, segName(active)), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open: %w", err)
	}
	l.f, l.active, l.off = f, active, activeLen
	return l, nil
}

// listSegments returns the segment numbers present in dir, ascending.
func (l *Log) listSegments() ([]uint64, error) {
	entries, err := l.fsys.ReadDir(l.dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var segs []uint64
	for _, e := range entries {
		if n, ok := parseSegName(e.Name()); ok {
			segs = append(segs, n)
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	return segs, nil
}

// startSegment creates segment n and makes it active, fsyncing the
// directory so the new name survives a crash.
func (l *Log) startSegment(n uint64) error {
	// O_APPEND, so every write lands at the current end of file — after
	// a torn append is truncated away, the next frame starts exactly at
	// the restored tail instead of leaving a hole at the dead fd offset.
	f, err := l.fsys.OpenFile(filepath.Join(l.dir, segName(n)), os.O_WRONLY|os.O_CREATE|os.O_EXCL|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: creating segment: %w", err)
	}
	if err := l.fsys.SyncDir(l.dir); err != nil {
		f.Close()
		return fmt.Errorf("wal: sync dir: %w", err)
	}
	l.f, l.active, l.off = f, n, 0
	return nil
}

// Append frames payload, writes it to the active segment, and fsyncs
// before returning: when Append returns nil the record survives any
// subsequent crash. Payloads larger than MaxRecordBytes are rejected.
func (l *Log) Append(payload []byte) error {
	if len(payload) > MaxRecordBytes {
		return fmt.Errorf("wal: record of %d bytes exceeds the %d-byte bound", len(payload), MaxRecordBytes)
	}
	frame := AppendRecord(nil, payload)
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("wal: log is closed")
	}
	if l.broken != nil {
		return fmt.Errorf("wal: log failed, refusing appends until reopen or rotation: %w", l.broken)
	}
	if _, err := l.f.Write(frame); err != nil {
		// A failed or short write may have left a torn frame at the
		// tail. Truncate back to the last durable record so no later
		// append can land beyond the tear — a record written after a
		// torn frame would be silently discarded by the next boot's
		// torn-tail truncation even though it was acked. If the tail
		// cannot be restored, fail-stop.
		if terr := l.fsys.Truncate(filepath.Join(l.dir, segName(l.active)), l.off); terr != nil {
			l.broken = fmt.Errorf("restoring tail after torn append: %v (append: %w)", terr, err)
		}
		return fmt.Errorf("wal: append: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		// After a failed fsync the kernel may have dropped the dirty
		// pages while leaving them readable, so nothing written through
		// this fd can be trusted again. Fail-stop: later appends are
		// refused, and the next Open re-verifies the tail from disk.
		l.broken = fmt.Errorf("append fsync: %w", err)
		return fmt.Errorf("wal: append: fsync: %w", err)
	}
	l.off += int64(len(frame))
	return nil
}

// Replay streams every record currently in the log, oldest segment
// first, to fn. A torn final frame in the newest segment is ignored
// (it was never acked); corruption anywhere else fails with ErrCorrupt.
// An error from fn stops the replay and is returned as-is.
func (l *Log) Replay(fn func(payload []byte) error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	segs, err := l.listSegments()
	if err != nil {
		return err
	}
	for i, n := range segs {
		data, err := l.fsys.ReadFile(filepath.Join(l.dir, segName(n)))
		if err != nil {
			return fmt.Errorf("wal: replay: %w", err)
		}
		good, err := ScanRecords(data, fn)
		if err != nil {
			return fmt.Errorf("wal: replay %s: %w", segName(n), err)
		}
		if good < len(data) && i != len(segs)-1 {
			return fmt.Errorf("wal: replay %s: %w: torn record in a non-final segment", segName(n), ErrCorrupt)
		}
	}
	return nil
}

// Rotate starts a fresh active segment and deletes every older one —
// the checkpoint hook: call it immediately after the state the log
// protects has been durably saved elsewhere, so the log only holds
// writes newer than that checkpoint.
func (l *Log) Rotate() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("wal: log is closed")
	}
	old := l.active
	if l.broken == nil {
		// On a failed log, skip the farewell sync: every append since
		// the fault was refused, so the old fd holds nothing acked, and
		// the fresh segment below recovers the log on a trustworthy fd.
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("wal: rotate: %w", err)
		}
	}
	if err := l.f.Close(); err != nil && l.broken == nil {
		return fmt.Errorf("wal: rotate: %w", err)
	}
	if err := l.startSegment(old + 1); err != nil {
		return err
	}
	l.broken = nil
	// The new segment is durable; retiring the old ones is best-effort
	// (a leftover is re-deleted by the next rotation, and replay of an
	// already-checkpointed record is idempotent at the caller).
	segs, err := l.listSegments()
	if err != nil {
		return nil
	}
	for _, n := range segs {
		if n <= old {
			l.fsys.Remove(filepath.Join(l.dir, segName(n)))
		}
	}
	l.fsys.SyncDir(l.dir)
	return nil
}

// Close fsyncs and closes the active segment. The log must not be used
// afterwards.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if err := l.f.Sync(); err != nil {
		l.f.Close()
		return fmt.Errorf("wal: close: %w", err)
	}
	return l.f.Close()
}

// Dir returns the log's directory.
func (l *Log) Dir() string { return l.dir }

// AppendRecord appends the framed form of payload to dst and returns
// the extended slice: uvarint length, 4-byte little-endian CRC-32C of
// the payload, payload bytes.
func AppendRecord(dst, payload []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(payload, crcTable))
	return append(dst, payload...)
}

// ScanRecords walks the framed records in data, calling fn for each
// complete, CRC-valid payload. It returns the number of bytes consumed
// by complete records; consumed < len(data) means the final frame is
// incomplete (a torn tail — expected after a crash mid-append). A
// complete frame that fails its CRC, or a length prefix exceeding
// MaxRecordBytes or wider than its value's canonical (minimal) uvarint,
// returns ErrCorrupt, so every accepted frame is the one AppendRecord
// writes. ScanRecords is total: arbitrary
// input yields a result or an error, never a panic, and allocates
// nothing beyond fn's own work (payloads alias data).
func ScanRecords(data []byte, fn func(payload []byte) error) (consumed int, err error) {
	off := 0
	for off < len(data) {
		size, n := binary.Uvarint(data[off:])
		if n == 0 {
			return off, nil // length prefix itself is torn
		}
		// A uvarint is minimal unless its last byte, past the first, is 0.
		if n < 0 || size > MaxRecordBytes || (n > 1 && data[off+n-1] == 0) {
			return off, fmt.Errorf("%w: record length %d at offset %d", ErrCorrupt, size, off)
		}
		rest := data[off+n:]
		if len(rest) < 4+int(size) {
			return off, nil // torn tail: frame extends past the data
		}
		sum := binary.LittleEndian.Uint32(rest)
		payload := rest[4 : 4+int(size)]
		if crc32.Checksum(payload, crcTable) != sum {
			return off, fmt.Errorf("%w: crc mismatch at offset %d", ErrCorrupt, off)
		}
		if err := fn(payload); err != nil {
			return off, err
		}
		off += n + 4 + int(size)
	}
	return off, nil
}
