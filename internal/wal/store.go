package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"traj2hash/internal/obs"
)

// Log and snapshot file names inside a store directory.
const (
	// LogName is the append log file.
	LogName = "wal.log"
	// SnapshotName is the latest complete snapshot: a compacted log in
	// the append log's frame format.
	SnapshotName = "snapshot.log"
)

// legacySnapshotName is the gob snapshot of older builds. Open refuses a
// directory that holds one rather than open it as a smaller index.
const legacySnapshotName = "snapshot.gob"

// DefaultSnapshotEvery is the snapshot cadence (in appended records)
// used when Options.SnapshotEvery is zero.
const DefaultSnapshotEvery = 1024

// maxRetainedBuf bounds the encode buffer a store keeps between appends —
// room for any single record short of a 4 000-point trajectory. A group
// that needs more is encoded into a buffer the store lets go of, so a
// bulk load does not pin its last group's frames for the store's life.
const maxRetainedBuf = 64 << 10

// ErrFailed is wrapped by the error of the first log write, fsync or
// snapshot step that fails, and by every Append, AppendBatch, Sync and
// WriteSnapshot after it: a failed write leaves a partial frame of unknown
// length in the log and a failed fsync leaves the kernel free to have
// dropped the dirty pages, so nothing appended behind either could be
// promised durable. The store stays failed until it is closed and the
// directory reopened (recovery truncates the partial frame). Test with
// errors.Is; the cause is wrapped beside it.
var ErrFailed = errors.New("wal: store failed and takes no further writes")

var errClosed = errors.New("wal: store is closed")

// Options configures a Store.
type Options struct {
	// Dir is the directory holding the log and snapshots; created if
	// missing.
	Dir string
	// SyncEvery is the group-fsync interval: the log is fsynced after
	// every SyncEvery appends (default 1 — every mutation durable before
	// its call returns). Larger values trade the durability of the last
	// few mutations for throughput; recovery still replays cleanly, it
	// just sees a shorter durable prefix.
	SyncEvery int
	// SnapshotEvery is the snapshot cadence in appended records: after
	// this many appends SnapshotDue reports true and the owner is
	// expected to write a snapshot, which resets the log. 0 means the
	// default (DefaultSnapshotEvery); negative disables cadence-driven
	// snapshots (WriteSnapshot still works).
	SnapshotEvery int
	// Metrics, when non-nil, receives the store's counters: wal.appends,
	// wal.fsyncs, wal.snapshots, and on Open wal.recoveries plus
	// wal.torn_tails. Nil disables instrumentation (nil-safe no-ops).
	Metrics *obs.Registry
	// FS is the filesystem seam (default OSFS). Tests inject
	// faultinject's wrapper here.
	FS VFS
}

func (o Options) withDefaults() Options {
	if o.SyncEvery <= 0 {
		o.SyncEvery = 1
	}
	if o.SnapshotEvery == 0 {
		o.SnapshotEvery = DefaultSnapshotEvery
	}
	if o.FS == nil {
		o.FS = OSFS{}
	}
	return o
}

// Recovered is what Open found on disk: the latest complete snapshot
// (nil if none was ever written), the log records appended after it in
// append order, and whether the log ended in a torn record — a crash
// mid-append — that recovery truncated away. The caller rebuilds its
// in-memory state from Snapshot, then re-applies Tail idempotently.
type Recovered struct {
	Snapshot *State
	Tail     []Record
	TornTail bool
}

// Store is the durability engine of an index: one append log plus
// periodic snapshots in a directory. All methods are safe for concurrent
// use; appends are serialized by an internal mutex, which is also what
// makes the fixed temp-file name of the snapshot writer safe.
//
// The unit the store writes, syncs and acknowledges is a group of records
// (AppendBatch; Append is the group of one): the group's frames reach the
// file in one write and the group-fsync rule is applied once, after it.
// The write protocol its owner follows: apply the group's mutations in
// memory, append their records, and when SnapshotDue, capture the state
// and WriteSnapshot it — which resets the log, bounding replay work by
// the snapshot cadence. The first write or fsync that fails ends the
// store's life (ErrFailed): it refuses everything but Close from then on.
type Store struct {
	opts Options
	fs   VFS
	dir  string

	mu        sync.Mutex
	f         File
	buf       []byte // encode buffer, kept while cap <= maxRetainedBuf
	pending   int    // records appended since the last fsync
	sinceSnap int    // records appended since the last snapshot
	failed    error  // the latched first failure, wrapping ErrFailed
	closed    bool   // Close has run

	appends   *obs.Counter // wal.appends
	fsyncs    *obs.Counter // wal.fsyncs
	snapshots *obs.Counter // wal.snapshots
}

// Open recovers whatever a previous run left in dir and returns a store
// ready for appends. Recovery is: load the latest snapshot if present,
// parse the log, truncate a torn tail (counted on wal.torn_tails), and
// reopen the log for appending. Every Open of a non-empty directory
// counts one wal.recoveries. A directory holding an older build's gob
// snapshot is refused before the log is read.
func Open(opts Options) (*Store, *Recovered, error) {
	opts = opts.withDefaults()
	if opts.Dir == "" {
		return nil, nil, fmt.Errorf("wal: Options.Dir is required")
	}
	fs := opts.FS
	if err := fs.MkdirAll(opts.Dir); err != nil {
		return nil, nil, fmt.Errorf("wal: creating %s: %w", opts.Dir, err)
	}
	legacy := filepath.Join(opts.Dir, legacySnapshotName)
	switch _, err := fs.ReadFile(legacy); {
	case err == nil:
		return nil, nil, fmt.Errorf("wal: %s was written by an older build, in a format this build does not read; re-export its data with the build that wrote it, or keep that build, before upgrading", legacy)
	case !errors.Is(err, os.ErrNotExist):
		return nil, nil, err
	}
	rec := &Recovered{}
	snapPath := filepath.Join(opts.Dir, SnapshotName)
	snap, err := loadSnapshot(fs, snapPath)
	switch {
	case err == nil:
		rec.Snapshot = snap
	case errors.Is(err, os.ErrNotExist):
	default:
		return nil, nil, err
	}
	logPath := filepath.Join(opts.Dir, LogName)
	data, err := fs.ReadFile(logPath)
	hadLog := true
	switch {
	case err == nil:
	case errors.Is(err, os.ErrNotExist):
		hadLog = false
		data = nil
	default:
		return nil, nil, err
	}
	parsed, err := parseLog(data)
	if err != nil {
		return nil, nil, err
	}
	rec.Tail = parsed.Records
	rec.TornTail = parsed.Torn
	if parsed.Torn {
		if err := fs.Truncate(logPath, parsed.Valid); err != nil {
			return nil, nil, fmt.Errorf("wal: truncating torn tail of %s: %w", logPath, err)
		}
	}
	s := &Store{
		opts:      opts,
		fs:        fs,
		dir:       opts.Dir,
		appends:   opts.Metrics.Counter("wal.appends"),
		fsyncs:    opts.Metrics.Counter("wal.fsyncs"),
		snapshots: opts.Metrics.Counter("wal.snapshots"),
	}
	if err := s.openLog(parsed.Valid == 0); err != nil {
		return nil, nil, err
	}
	if hadLog || rec.Snapshot != nil {
		opts.Metrics.Counter("wal.recoveries").Inc()
	}
	if rec.TornTail {
		opts.Metrics.Counter("wal.torn_tails").Inc()
	}
	return s, rec, nil
}

// openLog opens (or reopens) the append handle, writing and syncing the
// magic header when the file is empty. Callers hold mu (or own the store
// exclusively, as Open does).
func (s *Store) openLog(empty bool) error {
	f, err := s.fs.OpenAppend(filepath.Join(s.dir, LogName))
	if err != nil {
		return err
	}
	if empty {
		if _, err := f.Write(magic); err != nil {
			//lint:ignore errcheck the write error takes precedence over the cleanup close
			f.Close()
			return err
		}
		if err := f.Sync(); err != nil {
			//lint:ignore errcheck the sync error takes precedence over the cleanup close
			f.Close()
			return err
		}
	}
	s.f = f
	return nil
}

// Append logs one mutation record: AppendBatch of a group of one.
func (s *Store) Append(r Record) error { return s.AppendBatch([]Record{r}) }

// AppendBatch logs a group of mutation records: their frames are encoded
// back to back — the bytes len(rs) Appends would have written — handed to
// the file in one write, and the group-fsync rule is applied once, to the
// whole group. The records are durable once this (or a later) call has
// fsynced — with SyncEvery == 1, before it returns; otherwise once
// SyncEvery records are pending, or on an explicit Sync. A crash in the
// middle of the write leaves some whole frames of the group and at most
// one partial one, which recovery truncates: a prefix of the group.
//
// An error means none of the group may be acknowledged, and it is final:
// the store is failed (ErrFailed) and the owner should surface the error,
// Close, and rebuild via Open.
func (s *Store) AppendBatch(rs []Record) error {
	if len(rs) == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.usable(); err != nil {
		return err
	}
	need := 0
	for i := range rs {
		need += rs[i].FrameLen()
	}
	buf := s.buf[:0]
	if need > cap(buf) {
		buf = make([]byte, 0, need)
	}
	for i := range rs {
		buf = appendRecord(buf, rs[i])
	}
	s.buf = nil
	if need <= maxRetainedBuf {
		s.buf = buf
	}
	if _, err := s.f.Write(buf); err != nil {
		return s.fail(fmt.Errorf("appending %d record(s) from the %s of id %d: %w", len(rs), rs[0].Op, rs[0].ID, err))
	}
	s.appends.Add(int64(len(rs)))
	s.pending += len(rs)
	s.sinceSnap += len(rs)
	if s.pending >= s.opts.SyncEvery {
		return s.syncLocked()
	}
	return nil
}

// Err reports whether the store has failed: nil while it is healthy, the
// latched error (wrapping ErrFailed) afterwards. An owner checks it before
// changing the state its next record would describe.
func (s *Store) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.failed
}

// usable reports why the store can take no further write: it failed, or
// it was closed. Callers hold mu.
func (s *Store) usable() error {
	if s.failed != nil {
		return s.failed
	}
	if s.closed {
		return errClosed
	}
	return nil
}

// fail latches the store's first failure. Callers hold mu.
func (s *Store) fail(err error) error {
	s.failed = fmt.Errorf("%w: %w", ErrFailed, err)
	return s.failed
}

// Sync forces any appends still buffered by the group-fsync window to
// stable storage.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failed != nil || s.closed || s.pending == 0 {
		return s.failed
	}
	return s.syncLocked()
}

// syncLocked fsyncs the log. A failed fsync is never retried: the kernel
// may have dropped the pages it could not write, and a second fsync would
// then report a success the data does not back.
func (s *Store) syncLocked() error {
	if err := s.f.Sync(); err != nil {
		return s.fail(fmt.Errorf("fsync: %w", err))
	}
	s.fsyncs.Inc()
	s.pending = 0
	return nil
}

// SnapshotDue reports whether enough records have been appended since
// the last snapshot to warrant a new one.
func (s *Store) SnapshotDue() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.opts.SnapshotEvery > 0 && s.sinceSnap >= s.opts.SnapshotEvery
}

// WriteSnapshot atomically persists state and resets the log. The
// ordering is the recovery contract: the snapshot is fully durable
// (tmp + fsync + rename + dir sync) BEFORE the log is truncated, so a
// crash anywhere in between leaves the new snapshot plus a stale log —
// which replays idempotently — never a state only partially captured.
// An error at any step fails the store (ErrFailed).
func (s *Store) WriteSnapshot(state *State) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.usable(); err != nil {
		return err
	}
	if s.pending > 0 {
		if err := s.syncLocked(); err != nil {
			return err
		}
	}
	if err := s.resetLocked(state); err != nil {
		return s.fail(err)
	}
	s.sinceSnap = 0
	s.pending = 0
	s.snapshots.Inc()
	return nil
}

// resetLocked is WriteSnapshot's body behind the fsync of the log: the
// snapshot, then the log reset. Any error leaves the store failed — the
// log handle may already be gone (f is nil).
func (s *Store) resetLocked(state *State) error {
	if err := saveSnapshot(s.fs, filepath.Join(s.dir, SnapshotName), state); err != nil {
		return fmt.Errorf("writing snapshot: %w", err)
	}
	if err := s.f.Close(); err != nil {
		return fmt.Errorf("closing log before reset: %w", err)
	}
	s.f = nil
	if err := s.fs.Truncate(filepath.Join(s.dir, LogName), 0); err != nil {
		return fmt.Errorf("resetting log: %w", err)
	}
	return s.openLog(true)
}

// Close syncs pending appends and releases the log handle. The store is
// unusable afterwards; reopen with Open. A failed store is not synced
// again — the first Close releases its handle (a failed log reset may
// have left none) and reports the latched failure; later calls return nil.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	err := s.failed
	if s.f == nil { // a failed log reset left no handle
		return err
	}
	if err == nil && s.pending > 0 {
		err = s.syncLocked()
	}
	if cerr := s.f.Close(); cerr != nil && err == nil {
		err = cerr
	}
	s.f = nil
	return err
}
