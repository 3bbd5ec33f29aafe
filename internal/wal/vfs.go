// Package wal is the durability layer of the index: a length-prefixed,
// CRC-checksummed write-ahead log of mutations (Add/Delete/Update) with
// group fsync, periodic snapshots written with the atomic
// tmp+fsync+rename+dir-sync pattern (the same discipline as the training
// checkpoints, see internal/core SaveCheckpointFile), and a recovery
// path that loads the latest snapshot and replays the log tail,
// truncating a torn final record. A snapshot is a compacted log — one
// add frame per live item and a closing frame — so both files share one
// encoder, one parser and one checksum.
//
// All file I/O goes through the VFS seam so internal/faultinject can
// interpose deterministic faults — short writes, failed renames, failed
// syncs, and whole-process "crashes" — on real files in a test dir. The
// facade's crash-recovery suite (TestCrashRecoveryParity in the root
// package's durability_test.go) is built on that seam.
package wal

import (
	"errors"
	"io"
	"os"
	"syscall"
)

// File is the write side of one open log or snapshot file. Reads go
// through VFS.ReadFile instead — recovery always consumes whole files,
// so a streaming read interface would only widen the fault surface.
type File interface {
	io.Writer
	io.Closer
	// Sync forces written data to stable storage (fsync).
	Sync() error
}

// VFS is the filesystem seam of the package: every operation the log and
// snapshot code performs, and nothing more. The zero-dependency OS
// implementation is OSFS; internal/faultinject wraps any VFS with a
// deterministic fault schedule.
type VFS interface {
	// MkdirAll creates a directory (and parents) if missing.
	MkdirAll(dir string) error
	// ReadFile returns a file's full contents; a missing file reports an
	// error satisfying errors.Is(err, os.ErrNotExist).
	ReadFile(path string) ([]byte, error)
	// Create opens path for writing, truncating it if it exists.
	Create(path string) (File, error)
	// OpenAppend opens path for appending, creating it if missing.
	OpenAppend(path string) (File, error)
	// Rename atomically replaces newPath with oldPath.
	Rename(oldPath, newPath string) error
	// Truncate cuts a file to the given size.
	Truncate(path string, size int64) error
	// SyncDir fsyncs a directory so a completed rename in it is durable.
	// Filesystems that cannot sync directories are tolerated.
	SyncDir(dir string) error
}

// OSFS is the production VFS: direct os package calls, with the
// directory-sync tolerance the checkpoint code established (EINVAL /
// ENOTSUP from syncing a directory are swallowed, real I/O errors are
// returned).
type OSFS struct{}

// MkdirAll implements VFS.
func (OSFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

// ReadFile implements VFS.
func (OSFS) ReadFile(path string) ([]byte, error) { return os.ReadFile(path) }

// Create implements VFS.
func (OSFS) Create(path string) (File, error) {
	return os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
}

// OpenAppend implements VFS.
func (OSFS) OpenAppend(path string) (File, error) {
	return os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
}

// Rename implements VFS.
func (OSFS) Rename(oldPath, newPath string) error { return os.Rename(oldPath, newPath) }

// Truncate implements VFS.
func (OSFS) Truncate(path string, size int64) error { return os.Truncate(path, size) }

// SyncDir implements VFS.
func (OSFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	if serr != nil && (errors.Is(serr, syscall.EINVAL) || errors.Is(serr, syscall.ENOTSUP)) {
		serr = nil
	}
	if serr != nil {
		//lint:ignore errcheck the sync error takes precedence over the cleanup close
		d.Close()
		return serr
	}
	return d.Close()
}
