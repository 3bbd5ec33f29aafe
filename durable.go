package traj2hash

import (
	"context"
	"fmt"

	"traj2hash/internal/engine"
	"traj2hash/internal/geo"
	"traj2hash/internal/hamming"
	"traj2hash/internal/wal"
)

// This file is the mutability + durability face of the Index:
// Delete/Update (engine tombstones and in-place replacement), the two
// Add forms, and the write-ahead-log protocol — apply a group of
// mutations in memory (one, for the single forms), append their records
// in one write (group-fsynced), snapshot on cadence.
// Recovery (openWAL/restore) is the inverse: load the latest snapshot
// into the engine, replay the log tail idempotently, and remember what
// happened in RecoveryInfo.

// walGroupBytes is the budget of log frames AddBatchCtx stages before it
// commits them: a batch is applied and logged in groups, and a group
// closes once its encoded frames reach this many bytes — so a 100 K-trip
// seed batch stages 1 MiB of frames (plus one record) at a time, not
// 124 MB, and in-memory state never runs ahead of the log by more.
const walGroupBytes = 1 << 20

// writable reports why a mutation must be refused whole, before it
// touches memory: the index was closed, or its WAL failed. Callers hold
// ix.mu.
func (ix *Index) writable() error {
	if ix.closed {
		return ErrClosed
	}
	if ix.store != nil {
		return ix.store.Err()
	}
	return nil
}

// Delete removes the trajectory with the given id from the index: it
// disappears from every subsequent search and WithinCtx answer immediately
// and its id is never reused. Deleting an unknown id returns ErrNotFound;
// deleting twice returns ErrDeleted (both from package engine, exposed
// as traj2hash.ErrNotFound / traj2hash.ErrDeleted). When the shard's
// tombstone density crosses Options.CompactAt the delete also compacts
// that shard synchronously; compaction never changes answers.
func (ix *Index) Delete(id int) error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if err := ix.writable(); err != nil {
		return err
	}
	if err := ix.eng.Delete(id); err != nil {
		return err
	}
	// Release the trajectory: a deleted id answers nothing, so holding it
	// would only pin memory.
	ix.trajs[id] = nil
	return ix.logMutations(wal.Record{Op: wal.OpDelete, ID: id})
}

// Update re-embeds t and replaces the trajectory stored under id in
// place: the id, its shard, and its insertion-order position are all
// preserved, so deterministic tie-breaks survive the mutation. Updating
// an unknown id returns ErrNotFound; a deleted one, ErrDeleted; a
// trajectory whose embedding is not finite, ErrNonFiniteEmbedding with
// the stored item untouched.
func (ix *Index) Update(id int, t Trajectory) error {
	emb := ix.enc.Embed(t)
	if err := checkEmbedding(emb); err != nil {
		return err
	}
	code := hamming.FromSigns(emb)
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if err := ix.writable(); err != nil {
		return err
	}
	if err := ix.eng.Update(id, emb, code); err != nil {
		return err
	}
	ix.trajs[id] = t
	return ix.logMutations(ix.record(wal.OpUpdate, id, emb, code, t))
}

// record is the WAL record of an add or update. Its payload is built only
// when there is a log to write it to: logMutations drops the records of an
// in-memory index, and flattening every trajectory for it would be the
// largest garbage of a bulk ingest. Callers hold ix.mu.
func (ix *Index) record(op wal.Op, id int, emb []float64, code hamming.Code, t Trajectory) wal.Record {
	if ix.store == nil {
		return wal.Record{Op: op, ID: id}
	}
	return wal.Record{Op: op, ID: id, Emb: emb, Code: code, Traj: flattenTraj(t)}
}

// AddCtx embeds and indexes one more trajectory, returning its id. A done
// context fails fast before the trajectory is embedded or any state
// changes; a trajectory whose embedding is not finite (an empty one, an
// overflowing coordinate) fails with ErrNonFiniteEmbedding, likewise
// before any state changes.
//
// The index keeps t itself, not a copy — copying would double the user's
// data on every workload that holds on to its inputs — so t must not be
// modified while it is indexed (Trajectory returns the same slice). The
// embedding, by contrast, is the index's own copy.
func (ix *Index) AddCtx(ctx context.Context, t Trajectory) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	emb := ix.enc.Embed(t)
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if err := ix.writable(); err != nil {
		return 0, err
	}
	rec, err := ix.applyAdd(t, emb)
	if err != nil {
		return 0, err
	}
	if err := ix.logMutations(rec); err != nil {
		return 0, err
	}
	return rec.ID, nil
}

// AddBatchCtx embeds (in parallel, across the index's worker budget) and
// indexes a batch of trajectories, returning their ids. A done context
// fails fast BEFORE the batch is embedded (embedding is the expensive
// part — the same fail-fast contract AddCtx documents) and is re-checked
// before each item.
//
// With a WAL the batch is committed in groups: a group's items are applied
// in memory, their records reach the log in ONE write followed by ONE
// fsync, and only then are their ids acknowledged. A group ends with the
// batch, at the first refused item, or at walGroupBytes of log frames. No
// fsync a per-item commit would have issued in between was observable: the
// ids only exist for the caller once the call returns.
//
// On any failure — cancellation, a rejected item, a WAL error — the
// returned ids are the acknowledged prefix of the batch: every one of them
// is durable (with WALSyncEvery 1), none belongs to a group whose write or
// fsync failed. Reopening the directory recovers a prefix of the batch that
// covers every returned id and runs past them by at most the group in
// flight at the failure.
func (ix *Index) AddBatchCtx(ctx context.Context, ts []Trajectory) ([]int, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(ts) == 0 {
		return nil, nil
	}
	embs := ix.enc.EmbedAllParallel(ts, ix.opts.Workers)
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if err := ix.writable(); err != nil {
		return nil, err
	}
	ids := make([]int, 0, len(ts))
	var group []wal.Record
	for len(ids) < len(ts) {
		// Apply one group in memory, up to the first item that is refused or
		// the one whose frame takes the group to its budget …
		group = group[:0]
		var refused error
		for i, frames := len(ids), 0; i < len(ts) && frames < walGroupBytes; i++ {
			if refused = ctx.Err(); refused != nil {
				break
			}
			rec, err := ix.applyAdd(ts[i], embs[i])
			if refused = err; err != nil {
				break
			}
			group = append(group, rec)
			frames += rec.FrameLen()
		}
		// … then commit it, and only then acknowledge its ids.
		if err := ix.logMutations(group...); err != nil {
			return ids, err
		}
		for _, rec := range group {
			ids = append(ids, rec.ID)
		}
		if refused != nil {
			return ids, refused
		}
	}
	return ids, nil
}

// Close releases the durability layer: pending WAL appends are fsynced
// and the log handle is closed. The index remains usable for queries but
// further mutations fail with ErrClosed — applying them in memory only
// would silently break the durability promise every earlier mutation was
// made under. A nil store (in-memory index) makes Close a no-op and the
// index stays mutable. Safe to call more than once.
func (ix *Index) Close() error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ix.store == nil {
		return nil
	}
	ix.closed = true
	err := ix.store.Close()
	ix.store = nil
	return err
}

// logMutations commits a group of mutations: their records are appended
// to the WAL in one write (no-op for in-memory indexes) and a snapshot is
// taken if the cadence says so — once, after the group. Callers hold
// ix.mu and have already applied the mutations in memory — the in-memory
// state IS the state a due snapshot captures. An error means none of the
// group may be acknowledged (it is still applied in memory) and the WAL
// has failed: every later mutation is refused with ErrWALFailed; the
// caller should surface it and rebuild via NewIndexWith.
func (ix *Index) logMutations(group ...wal.Record) error {
	if ix.store == nil {
		return nil
	}
	if err := ix.store.AppendBatch(group); err != nil {
		return err
	}
	if ix.store.SnapshotDue() {
		return ix.store.WriteSnapshot(ix.captureState())
	}
	return nil
}

// captureState images the live index for a snapshot: next-id plus every
// live item's full representation, ascending by id. Callers hold ix.mu.
func (ix *Index) captureState() *wal.State {
	next := ix.eng.NextID()
	s := &wal.State{Next: next}
	for id := 0; id < next; id++ {
		emb, ok := ix.eng.Embedding(id, nil)
		if !ok {
			continue
		}
		s.Items = append(s.Items, wal.Item{
			ID:   id,
			Emb:  emb,
			Code: hamming.FromSigns(emb),
			Traj: flattenTraj(ix.trajs[id]),
		})
	}
	return s
}

// openWAL opens (or creates) Options.WALDir and restores whatever a
// previous run left there. Called from NewIndexWith before the initial
// batch is considered.
func (ix *Index) openWAL() error {
	store, rec, err := wal.Open(wal.Options{
		Dir:           ix.opts.WALDir,
		SyncEvery:     ix.opts.WALSyncEvery,
		SnapshotEvery: ix.opts.SnapshotEvery,
		Metrics:       ix.opts.Metrics,
		FS:            ix.opts.walFS,
	})
	if err != nil {
		return err
	}
	ix.store = store
	if err := ix.restore(rec); err != nil {
		//lint:ignore errcheck the restore error takes precedence over the cleanup close
		store.Close()
		ix.store = nil
		return err
	}
	return nil
}

// restore rebuilds the engine and the canonical trajectory array from
// what recovery found: the snapshot's live items first
// (placed back under their original global ids, with id-sequence gaps
// becoming engine tombstones), then the log tail re-applied in order.
//
// Tail replay is idempotent because a crash between the snapshot rename
// and the log reset leaves records the snapshot already reflects: an Add
// below the engine's next id is already present and skipped, as are
// Delete/Update of ids that are no longer live. What can NOT happen on
// an intact log is an Add ABOVE the next id — that would mean a lost
// record — so it fails recovery loudly instead of leaving a silent gap.
func (ix *Index) restore(rec *wal.Recovered) error {
	var next int
	var items []engine.RestoreItem
	if rec.Snapshot != nil {
		next = rec.Snapshot.Next
		items = make([]engine.RestoreItem, len(rec.Snapshot.Items))
		for i, it := range rec.Snapshot.Items {
			items[i] = engine.RestoreItem{ID: it.ID, Emb: it.Emb, Code: it.Code}
		}
	}
	if next == 0 && len(rec.Tail) == 0 {
		// No state to rebuild — but "clean fresh directory" and "a crash
		// ate the only record ever attempted" are different stories, and
		// callers must be able to tell them apart: a found-and-truncated
		// torn record marks the directory as recovered even though nothing
		// was restored.
		ix.rec = RecoveryInfo{Recovered: rec.TornTail, TornTail: rec.TornTail}
		return nil
	}
	if err := ix.eng.Restore(next, items); err != nil {
		return err
	}
	ix.trajs = make([]Trajectory, next)
	if rec.Snapshot != nil {
		for _, it := range rec.Snapshot.Items {
			ix.trajs[it.ID] = unflattenTraj(it.Traj)
		}
	}
	for _, r := range rec.Tail {
		switch r.Op {
		case wal.OpAdd:
			if r.ID < ix.eng.NextID() {
				continue // already captured by the snapshot
			}
			id, err := ix.eng.Add(r.Emb, r.Code)
			if err != nil {
				return fmt.Errorf("traj2hash: replaying add of id %d: %w", r.ID, err)
			}
			if id != r.ID {
				return fmt.Errorf("traj2hash: WAL add replay assigned id %d, logged id was %d (lost record)", id, r.ID)
			}
			ix.trajs = append(ix.trajs, unflattenTraj(r.Traj))
			ix.rec.Replayed++
		case wal.OpDelete:
			if !ix.eng.Live(r.ID) {
				continue
			}
			if err := ix.eng.Delete(r.ID); err != nil {
				return fmt.Errorf("traj2hash: replaying delete of id %d: %w", r.ID, err)
			}
			ix.trajs[r.ID] = nil
			ix.rec.Replayed++
		case wal.OpUpdate:
			if !ix.eng.Live(r.ID) {
				continue
			}
			if err := ix.eng.Update(r.ID, r.Emb, r.Code); err != nil {
				return fmt.Errorf("traj2hash: replaying update of id %d: %w", r.ID, err)
			}
			ix.trajs[r.ID] = unflattenTraj(r.Traj)
			ix.rec.Replayed++
		default:
			return fmt.Errorf("traj2hash: WAL record with unknown op %d", r.Op)
		}
	}
	ix.rec = RecoveryInfo{
		Recovered:    true,
		FromSnapshot: len(items),
		Replayed:     ix.rec.Replayed,
		TornTail:     rec.TornTail,
	}
	return nil
}

// flattenTraj serializes a trajectory for a WAL record or snapshot item
// as alternating x,y coordinates.
func flattenTraj(t Trajectory) []float64 {
	if len(t) == 0 {
		return nil
	}
	out := make([]float64, 0, 2*len(t))
	for _, p := range t {
		out = append(out, p.X, p.Y)
	}
	return out
}

// unflattenTraj is the inverse of flattenTraj.
func unflattenTraj(xs []float64) Trajectory {
	if len(xs) == 0 {
		return nil
	}
	t := make(Trajectory, 0, len(xs)/2)
	for i := 0; i+1 < len(xs); i += 2 {
		t = append(t, geo.Point{X: xs[i], Y: xs[i+1]})
	}
	return t
}
