package faultinject

import (
	"errors"
	"fmt"
	"sync"

	"traj2hash/internal/wal"
)

// ErrCrashed is the error every filesystem operation returns after an
// injected fault has fired: the FS behaves as if the process died at the
// fault instant — nothing later reaches disk. Recovery tests then reopen
// the SAME directory through a fresh (healthy) FS, exactly like a
// restarted process would.
var ErrCrashed = errors.New("faultinject: filesystem crashed")

// ErrNoSpace is the error of the partial write, a fault that does NOT
// crash the FS: a write that ran out of room part-way, ENOSPC-style. The
// process — and the filesystem under it — live on, so what the durability
// layer does next is observable, not just what recovery finds.
var ErrNoSpace = errors.New("faultinject: no space left on device")

// ErrIO is the error of the other two faults the FS survives: an fsync or
// a rename that fails, EIO-style, with every later operation going
// through.
var ErrIO = errors.New("faultinject: input/output error")

// FS wraps a wal.VFS with a deterministic fault schedule over the
// write-side operations the durability layer performs. Operations are
// counted per kind (file writes, file fsyncs, renames) and a fault fires
// when its 1-based operation index is reached:
//
//   - ShortWriteAt(n): the n-th File.Write persists only half its bytes,
//     then the FS crashes — the literal torn-record case.
//   - FailSyncAt(n): the n-th File.Sync fails without flushing, then the
//     FS crashes — data handed to the OS but never made durable.
//   - FailRenameAt(n): the n-th Rename fails before renaming, then the
//     FS crashes — a snapshot fully written but never published.
//   - PartialWriteAt(n): the n-th File.Write persists only half its
//     bytes and fails with ErrNoSpace — and the FS stays ALIVE: every
//     later operation goes through. The survivable append error.
//   - SyncErrorAt(n): the n-th File.Sync fails with ErrIO without
//     flushing, and the FS stays alive.
//   - RenameErrorAt(n): the n-th Rename fails with ErrIO before renaming,
//     and the FS stays alive — the temp file is left behind.
//
// Crash-at-every-point suites first run the workload on a counting-only
// FS to learn how many operations of each kind it performs, then replay
// it once per index with the fault scheduled there. An FS is safe for
// concurrent use; the schedule must be configured before the workload
// starts.
type FS struct {
	inner wal.VFS

	mu           sync.Mutex
	writes       int
	syncs        int
	renames      int
	shortWriteAt int
	partialAt    int
	failSyncAt   int
	failRenameAt int
	syncErrAt    int
	renameErrAt  int
	crashed      bool
}

// NewFS wraps inner (nil means the real filesystem, wal.OSFS) with an
// empty fault schedule — a pure operation counter until faults are armed.
func NewFS(inner wal.VFS) *FS {
	if inner == nil {
		inner = wal.OSFS{}
	}
	return &FS{inner: inner}
}

// ShortWriteAt arms the short-write fault at the 1-based write index n
// (0 disarms).
func (f *FS) ShortWriteAt(n int) { f.mu.Lock(); defer f.mu.Unlock(); f.shortWriteAt = n }

// PartialWriteAt arms the non-crashing partial-write fault at the 1-based
// write index n (0 disarms).
func (f *FS) PartialWriteAt(n int) { f.mu.Lock(); defer f.mu.Unlock(); f.partialAt = n }

// FailSyncAt arms the fsync fault at the 1-based sync index n (0 disarms).
func (f *FS) FailSyncAt(n int) { f.mu.Lock(); defer f.mu.Unlock(); f.failSyncAt = n }

// FailRenameAt arms the rename fault at the 1-based rename index n
// (0 disarms).
func (f *FS) FailRenameAt(n int) { f.mu.Lock(); defer f.mu.Unlock(); f.failRenameAt = n }

// SyncErrorAt arms the non-crashing fsync fault at the 1-based sync
// index n (0 disarms).
func (f *FS) SyncErrorAt(n int) { f.mu.Lock(); defer f.mu.Unlock(); f.syncErrAt = n }

// RenameErrorAt arms the non-crashing rename fault at the 1-based rename
// index n (0 disarms).
func (f *FS) RenameErrorAt(n int) { f.mu.Lock(); defer f.mu.Unlock(); f.renameErrAt = n }

// Crashed reports whether a fault has fired (and the FS is now dead).
func (f *FS) Crashed() bool { f.mu.Lock(); defer f.mu.Unlock(); return f.crashed }

// Counts returns how many file writes, file fsyncs, and renames the
// workload has performed so far — the coordinates crash-at-every-point
// suites schedule faults over.
func (f *FS) Counts() (writes, syncs, renames int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.writes, f.syncs, f.renames
}

// guard is the common prologue of pass-through operations: fail
// everything once crashed.
func (f *FS) guard() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return ErrCrashed
	}
	return nil
}

// MkdirAll implements wal.VFS.
func (f *FS) MkdirAll(dir string) error {
	if err := f.guard(); err != nil {
		return err
	}
	return f.inner.MkdirAll(dir)
}

// ReadFile implements wal.VFS.
func (f *FS) ReadFile(path string) ([]byte, error) {
	if err := f.guard(); err != nil {
		return nil, err
	}
	return f.inner.ReadFile(path)
}

// Create implements wal.VFS.
func (f *FS) Create(path string) (wal.File, error) {
	if err := f.guard(); err != nil {
		return nil, err
	}
	inner, err := f.inner.Create(path)
	if err != nil {
		return nil, err
	}
	return &faultyFile{fs: f, inner: inner}, nil
}

// OpenAppend implements wal.VFS.
func (f *FS) OpenAppend(path string) (wal.File, error) {
	if err := f.guard(); err != nil {
		return nil, err
	}
	inner, err := f.inner.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	return &faultyFile{fs: f, inner: inner}, nil
}

// renameFault counts one rename and decides its fate under the lock.
func (f *FS) renameFault() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return ErrCrashed
	}
	f.renames++
	switch f.renames {
	case f.failRenameAt:
		f.crashed = true
		return fmt.Errorf("faultinject: injected rename failure (rename %d): %w", f.renames, ErrCrashed)
	case f.renameErrAt:
		return fmt.Errorf("faultinject: injected rename error (rename %d): %w", f.renames, ErrIO)
	}
	return nil
}

// Rename implements wal.VFS, firing a scheduled rename fault BEFORE the
// rename happens — the "snapshot written but never published" case.
func (f *FS) Rename(oldPath, newPath string) error {
	if err := f.renameFault(); err != nil {
		return err
	}
	return f.inner.Rename(oldPath, newPath)
}

// Truncate implements wal.VFS.
func (f *FS) Truncate(path string, size int64) error {
	if err := f.guard(); err != nil {
		return err
	}
	return f.inner.Truncate(path, size)
}

// SyncDir implements wal.VFS. Directory syncs pass through (subject to
// the crashed state); the scheduled sync fault targets file fsyncs,
// where the durability protocol actually orders data.
func (f *FS) SyncDir(dir string) error {
	if err := f.guard(); err != nil {
		return err
	}
	return f.inner.SyncDir(dir)
}

// faultyFile threads every write and fsync of one open file through the
// FS's schedule. Close always closes the real handle (even after a
// crash) so tests never leak file descriptors.
type faultyFile struct {
	fs    *FS
	inner wal.File
}

// writeFault counts one write and decides its fate under the lock:
// tear=true means this write persists only half its bytes and fails with
// err — ErrCrashed for the scheduled short write (the FS is now crashed),
// ErrNoSpace for the scheduled partial write (it is not).
func (f *FS) writeFault() (tear bool, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return false, ErrCrashed
	}
	f.writes++
	switch f.writes {
	case f.shortWriteAt:
		f.crashed = true
		return true, ErrCrashed
	case f.partialAt:
		return true, ErrNoSpace
	}
	return false, nil
}

// syncFault counts one fsync and decides its fate under the lock.
func (f *FS) syncFault() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return ErrCrashed
	}
	f.syncs++
	switch f.syncs {
	case f.failSyncAt:
		f.crashed = true
		return fmt.Errorf("faultinject: injected fsync failure (sync %d): %w", f.syncs, ErrCrashed)
	case f.syncErrAt:
		return fmt.Errorf("faultinject: injected fsync error (sync %d): %w", f.syncs, ErrIO)
	}
	return nil
}

// Write implements wal.File. A scheduled short or partial write persists
// the first half of p and fails — producing a literally torn record on
// the real file, which is what the recovery path must detect and
// truncate.
func (w *faultyFile) Write(p []byte) (int, error) {
	tear, err := w.fs.writeFault()
	if tear {
		//lint:ignore errcheck the injected error below supersedes the real half-write's outcome
		n, _ := w.inner.Write(p[:len(p)/2])
		return n, fmt.Errorf("faultinject: injected short write (%d of %d bytes): %w", len(p)/2, len(p), err)
	}
	if err != nil {
		return 0, err
	}
	return w.inner.Write(p)
}

// Sync implements wal.File. A scheduled sync fault does NOT flush — the
// bytes may be in the OS cache of the test process, but the modeled
// machine may have lost them.
func (w *faultyFile) Sync() error {
	if err := w.fs.syncFault(); err != nil {
		return err
	}
	return w.inner.Sync()
}

// Close implements wal.File.
func (w *faultyFile) Close() error { return w.inner.Close() }
