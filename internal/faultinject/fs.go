package faultinject

// The file-system seam: retrieval/wal and retrieval/shard persistence
// go through an FS value (OS in production) so tests can interpose
// FaultyFS, which injects short writes, fsync errors, and ENOSPC from
// a seeded schedule. The interface is deliberately the small subset of
// the os package those layers actually use — not a general VFS.

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sync"
	"syscall"
)

// File is the writable-file subset persistence layers need: write,
// fsync, close. (*os.File implements it.)
type File interface {
	io.Writer
	// Sync flushes the file to stable storage (fsync).
	Sync() error
	// Close closes the file.
	Close() error
}

// FS is the file-system operation set behind WAL appends and index
// checkpoints. OS is the real implementation; FaultyFS wraps any FS
// with scripted failures.
type FS interface {
	// MkdirAll creates a directory path like os.MkdirAll.
	MkdirAll(path string, perm os.FileMode) error
	// ReadDir lists a directory like os.ReadDir.
	ReadDir(name string) ([]os.DirEntry, error)
	// ReadFile reads a whole file like os.ReadFile.
	ReadFile(name string) ([]byte, error)
	// OpenFile opens a file for writing/appending like os.OpenFile.
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	// Rename renames a file like os.Rename.
	Rename(oldpath, newpath string) error
	// Remove deletes a file like os.Remove.
	Remove(name string) error
	// Truncate truncates a file like os.Truncate.
	Truncate(name string, size int64) error
	// SyncDir fsyncs a directory so entry creation/removal is durable.
	SyncDir(dir string) error
}

// OS is the real file system; the zero value is ready to use.
type OS struct{}

// MkdirAll implements FS via os.MkdirAll.
func (OS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }

// ReadDir implements FS via os.ReadDir.
func (OS) ReadDir(name string) ([]os.DirEntry, error) { return os.ReadDir(name) }

// ReadFile implements FS via os.ReadFile.
func (OS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

// OpenFile implements FS via os.OpenFile.
func (OS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}

// Rename implements FS via os.Rename.
func (OS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

// Remove implements FS via os.Remove.
func (OS) Remove(name string) error { return os.Remove(name) }

// Truncate implements FS via os.Truncate.
func (OS) Truncate(name string, size int64) error { return os.Truncate(name, size) }

// SyncDir implements FS: open the directory and fsync it.
func (OS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// TempSuffix marks a file ReplaceFile is still writing.
const TempSuffix = ".tmp"

// ReplaceFile writes data to path through fsys so that a crash, power
// loss included, leaves the old file or the complete new one: path+
// TempSuffix is written, synced and closed, then renamed over path. The
// rename is durable once the directory is synced (SyncDir).
func ReplaceFile(fsys FS, path string, data []byte) error {
	f, err := fsys.OpenFile(path+TempSuffix, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err = f.Write(data); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fsys.Rename(path+TempSuffix, path)
	}
	return err
}

// ErrInjected marks every error FaultyFS and Transport fabricate, so
// tests (and recovery paths) can tell an injected fault from a real
// one with errors.Is. A fabricated error also matches the errno it
// stands for (syscall.ENOSPC, syscall.EIO, a Rule's Err).
var ErrInjected = errors.New("faultinject: injected fault")

// FaultyFS wraps an FS with a seeded schedule of disk faults: writes
// that fail (optionally after persisting a prefix — a short write),
// fsyncs that fail, and a byte budget after which every write returns
// ENOSPC. Probabilistic decisions are drawn from the seeded PRNG in
// operation order, so a given seed reproduces the same fault sequence.
// All methods are safe for concurrent use. The operations no fault
// applies to are the wrapped FS's own.
type FaultyFS struct {
	FS

	mu          sync.Mutex
	rng         *rand.Rand
	writeProb   float64
	writeErr    error
	shortWrites bool
	syncProb    float64
	syncErr     error
	bytesLeft   int64 // -1 = unlimited
	injectedOps int64
}

// NewFaultyFS wraps inner with a fault schedule seeded by seed. With
// no Fail* calls it is transparent.
func NewFaultyFS(inner FS, seed int64) *FaultyFS {
	return &FaultyFS{FS: inner, rng: rand.New(rand.NewSource(seed)), bytesLeft: -1}
}

// FailWrites makes each Write on an open File fail with probability
// prob, returning err (wrapped as ErrInjected). When short is true a
// failing write first persists a seeded prefix of the data — a torn
// write — before reporting the error.
func (f *FaultyFS) FailWrites(prob float64, err error, short bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.writeProb, f.writeErr, f.shortWrites = prob, err, short
}

// FailSyncs makes each File.Sync and SyncDir fail with probability
// prob, returning err (wrapped as ErrInjected).
func (f *FaultyFS) FailSyncs(prob float64, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.syncProb, f.syncErr = prob, err
}

// DiskFullAfter arms an ENOSPC budget: after n more bytes have been
// written, every further write fails with syscall.ENOSPC (wrapped as
// ErrInjected), with the byte that crosses the budget torn short —
// exactly how a full disk presents.
func (f *FaultyFS) DiskFullAfter(n int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.bytesLeft = n
}

// Clear disarms every fault; the FS becomes transparent again.
func (f *FaultyFS) Clear() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.writeProb, f.syncProb, f.bytesLeft = 0, 0, -1
	f.writeErr, f.syncErr = nil, nil
}

// Injected reports how many operations have had a fault injected.
func (f *FaultyFS) Injected() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.injectedOps
}

// writePlan decides one write's fate: how many of n bytes to persist
// and which error (nil = none) to return. Called with f.mu held.
func (f *FaultyFS) writePlan(n int) (keep int, err error) {
	if f.bytesLeft >= 0 && int64(n) > f.bytesLeft {
		keep = int(f.bytesLeft)
		f.injectedOps++
		return keep, fmt.Errorf("%w: %w", ErrInjected, syscall.ENOSPC)
	}
	if f.writeProb > 0 && f.rng.Float64() < f.writeProb {
		f.injectedOps++
		if f.shortWrites && n > 0 {
			keep = f.rng.Intn(n) // strictly short: at most n-1 bytes land
		}
		werr := f.writeErr
		if werr == nil {
			werr = syscall.EIO
		}
		return keep, fmt.Errorf("%w: %w", ErrInjected, werr)
	}
	return n, nil
}

// account records keep persisted bytes against the budget. Called with
// f.mu held.
func (f *FaultyFS) account(keep int) {
	if f.bytesLeft >= 0 {
		f.bytesLeft -= int64(keep)
	}
}

// syncPlan decides one fsync's fate. Called with f.mu held.
func (f *FaultyFS) syncPlan() error {
	if f.syncProb > 0 && f.rng.Float64() < f.syncProb {
		f.injectedOps++
		serr := f.syncErr
		if serr == nil {
			serr = syscall.EIO
		}
		return fmt.Errorf("%w: %w", ErrInjected, serr)
	}
	return nil
}

// OpenFile implements FS; the returned File applies the write and sync
// fault schedules.
func (f *FaultyFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	inner, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &FaultyFile{File: inner, fs: f}, nil
}

// SyncDir implements FS with the sync-fault schedule applied.
func (f *FaultyFS) SyncDir(dir string) error {
	f.mu.Lock()
	ferr := f.syncPlan()
	f.mu.Unlock()
	if ferr != nil {
		return ferr
	}
	return f.FS.SyncDir(dir)
}

// FaultyFile is a file FaultyFS opened: it applies the parent schedule to
// the file's writes and syncs.
type FaultyFile struct {
	File
	fs *FaultyFS
}

// Write implements File: the write fails, or lands a torn prefix and
// fails, as the write schedule says.
func (f *FaultyFile) Write(p []byte) (int, error) {
	f.fs.mu.Lock()
	keep, ferr := f.fs.writePlan(len(p))
	f.fs.account(keep)
	f.fs.mu.Unlock()
	if ferr != nil {
		n := 0
		if keep > 0 {
			n, _ = f.File.Write(p[:keep]) // the torn prefix really lands
		}
		return n, ferr
	}
	return f.File.Write(p)
}

// Sync implements File, failing as the sync schedule says.
func (f *FaultyFile) Sync() error {
	f.fs.mu.Lock()
	ferr := f.fs.syncPlan()
	f.fs.mu.Unlock()
	if ferr != nil {
		return ferr
	}
	return f.File.Sync()
}
