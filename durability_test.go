package traj2hash

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync/atomic"
	"testing"

	"traj2hash/internal/faultinject"
	"traj2hash/internal/wal"
)

// This file is the durability proof of ISSUE 8: a crash injected at
// EVERY filesystem write, fsync, and rename of a mutating workload must
// recover to some prefix of the mutation script and answer queries
// byte-identically to a fresh index built over exactly that prefix.

// mop is one scripted call against the public Index API: a single
// mutation, or a batch of adds (AddBatchCtx — one WAL group).
type mop struct {
	kind int // mopAdd | mopDelete | mopUpdate | mopBatch
	id   int
	t    Trajectory
	ts   []Trajectory // mopBatch only
}

const (
	mopAdd = iota
	mopDelete
	mopUpdate
	mopBatch
)

// itemsOf flattens a script of calls into the single mutations it makes,
// the granularity recovery is judged at: a crash inside a batch may keep
// any prefix of its items.
func itemsOf(ops []mop) []mop {
	items := make([]mop, 0, len(ops))
	for _, op := range ops {
		if op.kind != mopBatch {
			items = append(items, op)
			continue
		}
		for _, t := range op.ts {
			items = append(items, mop{kind: mopAdd, t: t})
		}
	}
	return items
}

// durabilityScript interleaves adds, deletes, updates and one batch of
// adds over distinct dataset trajectories. Every mutation changes the
// observable state (updates use fresh trajectories), so each prefix of
// the script's items is distinguishable — which is what lets recovery
// tests identify the durable prefix. Under durableOpts' SnapshotEvery 4
// the batch starts two records after a snapshot, so the next one falls
// due inside it and is taken behind the whole group.
func durabilityScript(ds *Dataset) []mop {
	db := ds.Database
	ops := make([]mop, 0, 17)
	for i := 0; i < 8; i++ {
		ops = append(ops, mop{kind: mopAdd, t: db[i]})
	}
	return append(ops,
		mop{kind: mopDelete, id: 2},
		mop{kind: mopUpdate, id: 5, t: db[8]},
		mop{kind: mopBatch, ts: db[13:18]}, // ids 8–12
		mop{kind: mopAdd, t: db[9]},        // id 13
		mop{kind: mopDelete, id: 0},
		mop{kind: mopAdd, t: db[10]}, // id 14
		mop{kind: mopUpdate, id: 3, t: db[11]},
		mop{kind: mopDelete, id: 7},
		mop{kind: mopAdd, t: db[12]}, // id 15
	)
}

// applyOps runs the script until the first failure, returning how many
// calls fully succeeded.
func applyOps(ix *Index, ops []mop) (int, error) {
	for i, op := range ops {
		var err error
		switch op.kind {
		case mopAdd:
			_, err = ix.AddCtx(context.Background(), op.t)
		case mopDelete:
			err = ix.Delete(op.id)
		case mopUpdate:
			err = ix.Update(op.id, op.t)
		case mopBatch:
			_, err = ix.AddBatchCtx(context.Background(), op.ts)
		}
		if err != nil {
			return i, err
		}
	}
	return len(ops), nil
}

// expectedAfter simulates the first L single mutations (itemsOf a script)
// in pure Go: the next id the index would assign and the live id →
// trajectory mapping.
func expectedAfter(ops []mop, L int) (int, map[int]Trajectory) {
	next := 0
	live := map[int]Trajectory{}
	for _, op := range ops[:L] {
		switch op.kind {
		case mopAdd:
			live[next] = op.t
			next++
		case mopDelete:
			delete(live, op.id)
		case mopUpdate:
			live[op.id] = op.t
		}
	}
	return next, live
}

// stateMatches reports whether ix exposes exactly the given live set
// over the id space [0, maxNext).
func stateMatches(ix *Index, maxNext int, live map[int]Trajectory) bool {
	if ix.Len() != len(live) {
		return false
	}
	for id := 0; id < maxNext; id++ {
		got, ok := ix.Trajectory(id)
		want, wok := live[id]
		if ok != wok || (ok && !reflect.DeepEqual(got, want)) {
			return false
		}
	}
	return true
}

// matchPrefix finds the longest prefix of single mutations whose state
// equals what ix recovered. ok=false means the recovered state is NOT any
// prefix — the durability contract is broken.
func matchPrefix(ix *Index, ops []mop, maxNext int) (int, bool) {
	for L := len(ops); L >= 0; L-- {
		_, live := expectedAfter(ops, L)
		if stateMatches(ix, maxNext, live) {
			return L, true
		}
	}
	return 0, false
}

func assertSameResults(t *testing.T, tag string, got, want []Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d\n got %v\nwant %v", tag, len(got), len(want), got, want)
	}
	for i := range got {
		if got[i].ID != want[i].ID || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			t.Fatalf("%s: rank %d is (%d, %v), want (%d, %v)", tag, i, got[i].ID, got[i].Score, want[i].ID, want[i].Score)
		}
	}
}

// assertIndexParity compares the recovered index to its oracle on every
// search surface: both spaces and the Within neighborhood — byte-identical ids,
// scores, and order. It also proves no dead id ever surfaces, even when
// over-asking for the full ranking.
func assertIndexParity(t *testing.T, tag string, got, want *Index, qs []Trajectory, live map[int]Trajectory) {
	t.Helper()
	if got.Len() != want.Len() || got.Len() != len(live) {
		t.Fatalf("%s: Len %d, oracle %d, expected %d", tag, got.Len(), want.Len(), len(live))
	}
	k := got.Len() + 2 // over-ask: the ranking of every live item
	for qi, q := range qs {
		qt := fmt.Sprintf("%s q%d", tag, qi)
		assertSameResults(t, qt+" Search", do(t, got, Query{Traj: q, K: 5}), do(t, want, Query{Traj: q, K: 5}))
		for _, space := range []Space{SpaceHamming, SpaceEuclidean} {
			query := Query{Traj: q, K: k, Space: space}
			assertSameResults(t, fmt.Sprintf("%s space %d", qt, space), do(t, got, query), do(t, want, query))
		}
		gw, ww := within(t, got, q, 2), within(t, want, q, 2)
		if !reflect.DeepEqual(gw, ww) {
			t.Fatalf("%s Within: got %v, want %v", qt, gw, ww)
		}
		for _, r := range do(t, got, Query{Traj: q, K: k, Space: SpaceEuclidean}) {
			if _, ok := live[r.ID]; !ok {
				t.Fatalf("%s: dead id %d surfaced in the full ranking", qt, r.ID)
			}
		}
	}
}

// durableOpts is the shared durable configuration: tight snapshot
// cadence (so the crash schedule covers the snapshot protocol several
// times over) and per-mutation fsync (so every successful op is a
// durability promise the recovery assertions can hold it to).
func durableOpts(shards int, dir string, fs wal.VFS) Options {
	return Options{
		Shards:        shards,
		WALDir:        dir,
		SnapshotEvery: 4,
		WALSyncEvery:  1,
		walFS:         fs,
	}
}

// oracleIndex builds the in-memory reference: same search options, no
// durability, the given script prefix applied through the same API.
func oracleIndex(t *testing.T, enc Encoder, shards int, ops []mop) *Index {
	t.Helper()
	ix, err := NewIndexWith(enc, nil, Options{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	if n, err := applyOps(ix, ops); err != nil {
		t.Fatalf("oracle op %d: %v", n, err)
	}
	return ix
}

// TestCrashRecoveryParity is the tentpole acceptance test: for every
// single filesystem operation the durable workload performs — every
// file write (torn short), every fsync (failed), every rename (failed
// before renaming) — crash there, recover the directory through a
// healthy filesystem, and require that
//
//  1. the recovered state is EXACTLY some prefix of the script's single
//     mutations (a batch counts item by item),
//  2. that prefix covers every call that returned success (durability
//     was promised: WALSyncEvery=1) and overshoots by at most the call
//     in flight at the crash — for the batch, any prefix of its group,
//  3. a fresh in-memory index built over exactly that prefix answers
//     every query byte-identically on all backends,
//  4. deleted ids never appear in any answer,
//
// and that Close of the crashed index reports the failure, wherever in
// the protocol it struck. It runs sharded and on a single shard.
func TestCrashRecoveryParity(t *testing.T) {
	m, ds := untrainedFixture(t)
	ops := durabilityScript(ds)
	items := itemsOf(ops)
	maxNext, _ := expectedAfter(items, len(items))
	queries := ds.Queries[:2]

	configs := []struct {
		name   string
		shards int
	}{
		{"sharded", 2},
		{"single-shard", 1},
	}
	for _, cfg := range configs {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			// Recon pass: run the workload on a counting-only FS to learn
			// the crash schedule's coordinate space.
			recon := faultinject.NewFS(nil)
			rix, err := NewIndexWith(m, nil, durableOpts(cfg.shards, t.TempDir(), recon))
			if err != nil {
				t.Fatal(err)
			}
			if n, err := applyOps(rix, ops); err != nil {
				t.Fatalf("recon op %d: %v", n, err)
			}
			if err := rix.Close(); err != nil {
				t.Fatal(err)
			}
			writes, syncs, renames := recon.Counts()
			if writes == 0 || syncs == 0 || renames == 0 {
				t.Fatalf("recon found no crash points (writes=%d syncs=%d renames=%d)", writes, syncs, renames)
			}

			type fault struct {
				name string
				arm  func(*faultinject.FS)
			}
			var faults []fault
			for w := 1; w <= writes; w++ {
				w := w
				faults = append(faults, fault{fmt.Sprintf("short-write-%d", w), func(f *faultinject.FS) { f.ShortWriteAt(w) }})
			}
			for s := 1; s <= syncs; s++ {
				s := s
				faults = append(faults, fault{fmt.Sprintf("fail-sync-%d", s), func(f *faultinject.FS) { f.FailSyncAt(s) }})
			}
			for r := 1; r <= renames; r++ {
				r := r
				faults = append(faults, fault{fmt.Sprintf("fail-rename-%d", r), func(f *faultinject.FS) { f.FailRenameAt(r) }})
			}

			splitBatch := false // some crash kept a proper prefix of the batch's group
			for _, fl := range faults {
				dir := t.TempDir()
				ffs := faultinject.NewFS(nil)
				fl.arm(ffs)
				applied := 0
				ix, err := NewIndexWith(m, nil, durableOpts(cfg.shards, dir, ffs))
				if err == nil {
					applied, err = applyOps(ix, ops)
					if err == nil {
						t.Fatalf("%s: workload survived its scheduled crash", fl.name)
					}
					if cerr := ix.Close(); !errors.Is(cerr, ErrWALFailed) {
						t.Fatalf("%s: Close after the fault = %v, want the latched ErrWALFailed", fl.name, cerr)
					}
				}
				if !ffs.Crashed() {
					t.Fatalf("%s: workload failed (%v) without the fault firing", fl.name, err)
				}

				// Recover the directory like a restarted process: healthy FS.
				rec, err := NewIndexWith(m, nil, durableOpts(cfg.shards, dir, nil))
				if err != nil {
					t.Fatalf("%s: recovery failed: %v", fl.name, err)
				}
				L, ok := matchPrefix(rec, items, maxNext)
				if !ok {
					t.Fatalf("%s: recovered state (Len=%d) is not any prefix of the script", fl.name, rec.Len())
				}
				// The crash happened inside call number applied (0-based).
				acked, inFlight := len(itemsOf(ops[:applied])), len(itemsOf(ops[:applied+1]))
				if L < acked || L > inFlight {
					t.Fatalf("%s: durable prefix %d mutations, but the %d calls that returned success made %d and the call in flight ends at %d", fl.name, L, applied, acked, inFlight)
				}
				splitBatch = splitBatch || (ops[applied].kind == mopBatch && acked < L && L < inFlight)
				_, live := expectedAfter(items, L)
				oracle := oracleIndex(t, m, cfg.shards, items[:L])
				assertIndexParity(t, fmt.Sprintf("%s L=%d", fl.name, L), rec, oracle, queries, live)
				if err := rec.Close(); err != nil {
					t.Fatalf("%s: closing recovered index: %v", fl.name, err)
				}
			}
			if !splitBatch {
				t.Fatal("no crash point recovered a proper prefix of the batch: the matrix does not reach inside a group")
			}
		})
	}
}

// TestDurableRoundTrip is the non-crash durability contract: a clean
// close/reopen cycle restores the index exactly, the initial dataset is
// NOT re-seeded on top of recovered state, ids are never reused across
// restarts, and RecoveryInfo tells the truth.
func TestDurableRoundTrip(t *testing.T) {
	m, ds := untrainedFixture(t)
	dir := t.TempDir()
	opts := func() Options {
		return Options{Shards: 2, WALDir: dir, SnapshotEvery: 3}
	}

	ix, err := NewIndexWith(m, ds.Database[:4], opts())
	if err != nil {
		t.Fatal(err)
	}
	if ix.Recovery().Recovered {
		t.Fatal("fresh directory reported a recovery")
	}
	if err := ix.Delete(1); err != nil {
		t.Fatal(err)
	}
	if err := ix.Update(2, ds.Database[10]); err != nil {
		t.Fatal(err)
	}
	if id, err := ix.AddCtx(context.Background(), ds.Database[11]); err != nil || id != 4 {
		t.Fatalf("Add = (%d, %v), want id 4", id, err)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen with a DIFFERENT initial batch: recovery must win and the
	// batch must be ignored — otherwise every restart re-indexes the
	// dataset on top of its recovered copy.
	ix2, err := NewIndexWith(m, ds.Database[20:28], opts())
	if err != nil {
		t.Fatal(err)
	}
	info := ix2.Recovery()
	if !info.Recovered || info.TornTail {
		t.Fatalf("reopen RecoveryInfo = %+v, want a clean recovery", info)
	}
	if info.FromSnapshot+info.Replayed == 0 {
		t.Fatalf("reopen RecoveryInfo = %+v recovered nothing", info)
	}
	if ix2.Len() != 4 {
		t.Fatalf("reopened Len = %d, want 4 (seed batch must be ignored)", ix2.Len())
	}
	if _, ok := ix2.Trajectory(1); ok {
		t.Fatal("deleted id 1 resurrected by reopen")
	}
	if tr, ok := ix2.Trajectory(2); !ok || !reflect.DeepEqual(tr, ds.Database[10]) {
		t.Fatal("update of id 2 lost across reopen")
	}

	// The reopened index answers exactly like an in-memory index with the
	// same mutation history.
	oracle, err := NewIndexWith(m, ds.Database[:4], Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, mut := range []error{oracle.Delete(1), oracle.Update(2, ds.Database[10])} {
		if mut != nil {
			t.Fatal(mut)
		}
	}
	if _, err := oracle.AddCtx(context.Background(), ds.Database[11]); err != nil {
		t.Fatal(err)
	}
	_, live := expectedAfter([]mop{
		{kind: mopAdd, t: ds.Database[0]}, {kind: mopAdd, t: ds.Database[1]},
		{kind: mopAdd, t: ds.Database[2]}, {kind: mopAdd, t: ds.Database[3]},
		{kind: mopDelete, id: 1}, {kind: mopUpdate, id: 2, t: ds.Database[10]},
		{kind: mopAdd, t: ds.Database[11]},
	}, 7)
	assertIndexParity(t, "round-trip", ix2, oracle, ds.Queries[:2], live)

	// Ids keep advancing across restarts (never reused), and a third
	// clean reopen sees the post-restart mutation too.
	if id, err := ix2.AddCtx(context.Background(), ds.Database[12]); err != nil || id != 5 {
		t.Fatalf("post-reopen Add = (%d, %v), want id 5", id, err)
	}
	if err := ix2.Close(); err != nil {
		t.Fatal(err)
	}
	ix3, err := NewIndexWith(m, nil, opts())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ix3.Close()
	}()
	if ix3.Len() != 5 {
		t.Fatalf("third open Len = %d, want 5", ix3.Len())
	}
	if tr, ok := ix3.Trajectory(5); !ok || !reflect.DeepEqual(tr, ds.Database[12]) {
		t.Fatal("mutation made after the first recovery lost by the second")
	}
}

// TestDurableFilesDeterministic: two durable indexes, each built from
// scratch (dataset, encoder, index) and driven by the same mutation
// script, must leave byte-identical snapshot and log files. Under
// durableOpts' SnapshotEvery 4 the script snapshots several times and
// ends with records logged after the last snapshot, so both captureState
// and record reach disk through the facade.
func TestDurableFilesDeterministic(t *testing.T) {
	dirs := [2]string{t.TempDir(), t.TempDir()}
	var files [2]map[string]string
	for i, dir := range dirs {
		m, ds := untrainedFixture(t)
		ix, err := NewIndexWith(m, ds.Database[20:26], durableOpts(2, dir, nil))
		if err != nil {
			t.Fatal(err)
		}
		if n, err := applyOps(ix, durabilityScript(ds)); err != nil {
			t.Fatalf("op %d: %v", n, err)
		}
		if err := ix.Close(); err != nil {
			t.Fatal(err)
		}
		files[i] = dirBytes(t, dir)
	}
	for _, name := range []string{wal.SnapshotName, wal.LogName} {
		if files[0][name] != files[1][name] {
			t.Errorf("%s differs between two identical runs (%d vs %d bytes)", name, len(files[0][name]), len(files[1][name]))
		}
	}
	if len(files[0]) != len(files[1]) {
		t.Errorf("the runs left different files: %d vs %d", len(files[0]), len(files[1]))
	}

	// Both files carry state: recovery reads items from the snapshot and
	// replays records from the log.
	m, _ := untrainedFixture(t)
	re, err := NewIndexWith(m, nil, durableOpts(2, dirs[0], nil))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if info := re.Recovery(); info.FromSnapshot == 0 || info.Replayed == 0 {
		t.Fatalf("RecoveryInfo = %+v, want items from the snapshot and records from the log", info)
	}
}

// TestAccessorsReportMissing locks the satellite-(b) contract: the
// accessors return (zero, false) — never panic, never stale data — for
// out-of-range and deleted ids, and ApproxDistance has no value (NaN)
// for ids without an embedding.
func TestAccessorsReportMissing(t *testing.T) {
	m, ds := untrainedFixture(t)
	ix, err := NewIndexWith(m, ds.Database[:3], Options{})
	if err != nil {
		t.Fatal(err)
	}
	qe := m.Embed(ds.Queries[0])
	for _, id := range []int{-1, 3, 1 << 20} {
		if _, ok := ix.Trajectory(id); ok {
			t.Errorf("Trajectory(%d) ok for an id never assigned", id)
		}
		if _, ok := ix.Embedding(id); ok {
			t.Errorf("Embedding(%d) ok for an id never assigned", id)
		}
		if d := ix.ApproxDistanceByVec(qe, id); !math.IsNaN(d) {
			t.Errorf("ApproxDistance(%d) = %v, want NaN", id, d)
		}
	}
	if err := ix.Delete(1); err != nil {
		t.Fatal(err)
	}
	if _, ok := ix.Trajectory(1); ok {
		t.Error("Trajectory ok after delete")
	}
	if _, ok := ix.Embedding(1); ok {
		t.Error("Embedding ok after delete")
	}
	if d := ix.ApproxDistanceByVec(qe, 1); !math.IsNaN(d) {
		t.Errorf("ApproxDistance of deleted id = %v, want NaN", d)
	}
	if tr, ok := ix.Trajectory(0); !ok || len(tr) == 0 {
		t.Error("live id 0 lost its trajectory")
	}
	if err := ix.Delete(7); !errors.Is(err, ErrNotFound) {
		t.Errorf("Delete(7) = %v, want ErrNotFound", err)
	}
	if err := ix.Delete(1); !errors.Is(err, ErrDeleted) {
		t.Errorf("second Delete(1) = %v, want ErrDeleted", err)
	}
	if err := ix.Update(1, ds.Database[5]); !errors.Is(err, ErrDeleted) {
		t.Errorf("Update of deleted id = %v, want ErrDeleted", err)
	}
}

// TestEmbeddingIsACopy: Embedding hands out a copy. It used to return the
// very array the Euclidean scan reads, so a caller that modified what it
// got changed the index's answers and its next snapshot.
func TestEmbeddingIsACopy(t *testing.T) {
	m, ds := untrainedFixture(t)
	ix, err := NewIndexWith(m, ds.Database, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	emb, ok := ix.Embedding(0)
	if !ok {
		t.Fatal("no embedding for id 0")
	}
	q := append([]float64(nil), emb...)
	image := ix.captureState()
	emb[0] += 1000
	if rs := ix.SearchEuclideanByVec(q, 1); len(rs) != 1 || rs[0] != (Result{ID: 0, Score: 0}) {
		t.Errorf("after the caller modified its copy, id 0's own embedding finds %v, want {0 0}", rs)
	}
	if again, _ := ix.Embedding(0); !reflect.DeepEqual(again, q) {
		t.Errorf("Embedding(0) = %v after the caller modified its copy, want %v", again, q)
	}
	if !reflect.DeepEqual(ix.captureState(), image) {
		t.Error("the snapshot image changed with the caller's copy")
	}
}

// TestMutationsAfterCloseFailClosed locks the post-Close contract: once
// Close has released a durable index's WAL, every mutation path returns
// ErrClosed and applies NOTHING — before the fix, mutations silently
// succeeded in memory while logMutation treated the nil store as an
// in-memory no-op, so the caller got an id back for a write that a
// restart would lose.
func TestMutationsAfterCloseFailClosed(t *testing.T) {
	m, ds := untrainedFixture(t)
	dir := t.TempDir()
	opts := Options{WALDir: dir}
	ix, err := NewIndexWith(m, ds.Database[:3], opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}

	if _, err := ix.AddCtx(context.Background(), ds.Database[5]); !errors.Is(err, ErrClosed) {
		t.Errorf("AddCtx after Close = %v, want ErrClosed", err)
	}
	if ids, err := ix.AddBatchCtx(context.Background(), ds.Database[5:7]); !errors.Is(err, ErrClosed) || len(ids) != 0 {
		t.Errorf("AddBatchCtx after Close = (%v, %v), want ErrClosed and no ids", ids, err)
	}
	if err := ix.Delete(0); !errors.Is(err, ErrClosed) {
		t.Errorf("Delete after Close = %v, want ErrClosed", err)
	}
	if err := ix.Update(1, ds.Database[9]); !errors.Is(err, ErrClosed) {
		t.Errorf("Update after Close = %v, want ErrClosed", err)
	}
	// The refused mutations must not have leaked into memory either:
	// the live set is exactly the pre-Close state and still queryable.
	if ix.Len() != 3 {
		t.Fatalf("Len after refused mutations = %d, want 3", ix.Len())
	}
	if got := do(t, ix, Query{Traj: ds.Queries[0], K: 2}); len(got) != 2 {
		t.Fatalf("Search after Close returned %d results, want 2 (queries must keep working)", len(got))
	}
	if err := ix.Close(); err != nil {
		t.Fatalf("second Close = %v, want nil (idempotent)", err)
	}

	// And none of them claimed durability: a restart sees exactly the
	// pre-Close state.
	ix2, err := NewIndexWith(m, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ix2.Close()
	}()
	if ix2.Len() != 3 {
		t.Fatalf("reopened Len = %d, want 3 (a post-Close mutation reached the log)", ix2.Len())
	}
	if tr, ok := ix2.Trajectory(1); !ok || !reflect.DeepEqual(tr, ds.Database[1]) {
		t.Fatal("reopened id 1 does not match the pre-Close state")
	}

	// An in-memory index has no durability to protect: Close stays a
	// documented no-op and the index stays mutable.
	mem, err := NewIndexWith(m, ds.Database[:2], Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := mem.Close(); err != nil {
		t.Fatal(err)
	}
	if id, err := mem.AddCtx(context.Background(), ds.Database[5]); err != nil || id != 2 {
		t.Fatalf("in-memory Add after Close = (%d, %v), want id 2", id, err)
	}
}

// TestWALFailureIsLatched: an append error the process survives (a write
// that ran out of disk half-way, the filesystem still alive) used to be
// forgotten — the next AddCtx was appended behind the partial record,
// fsynced and acknowledged, and a reopen truncated the log at the partial
// record and took the acknowledged one with it. The store now stays
// failed after any survivable fault — a partial write, a failed fsync, a
// failed rename inside a snapshot: every later mutation is refused whole
// with ErrWALFailed, queries keep answering, Close reports the failure,
// and a reopen finds every acknowledged id (and ignores the temp file a
// failed snapshot rename leaves).
func TestWALFailureIsLatched(t *testing.T) {
	m, ds := untrainedFixture(t)
	ctx := context.Background()
	for _, tc := range []struct {
		name          string
		snapshotEvery int
		arm           func(f *faultinject.FS, writes, syncs, renames int) // counts after opening
		cause         error
		leavesTmp     bool // the fault strands the snapshot's temp file
		wantLen       int  // what the reopen recovers
		wantTorn      bool
	}{
		// Half the second add's frame reaches the log: the reopen truncates it.
		{"partial write", -1, func(f *faultinject.FS, w, _, _ int) { f.PartialWriteAt(w + 2) }, faultinject.ErrNoSpace, false, 1, true},
		// The second add's bytes are written whole; only its fsync fails.
		{"fsync", -1, func(f *faultinject.FS, _, s, _ int) { f.SyncErrorAt(s + 2) }, faultinject.ErrIO, false, 2, false},
		// The second add is logged and falls due for a snapshot, whose rename fails.
		{"snapshot rename", 2, func(f *faultinject.FS, _, _, r int) { f.RenameErrorAt(r + 1) }, faultinject.ErrIO, true, 2, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			opts := Options{Shards: 2, WALDir: dir, SnapshotEvery: tc.snapshotEvery, WALSyncEvery: 1}
			ffs := faultinject.NewFS(nil)
			opts.walFS = ffs
			ix, err := NewIndexWith(m, nil, opts)
			if err != nil {
				t.Fatal(err)
			}
			w, s, r := ffs.Counts()
			tc.arm(ffs, w, s, r) // the second add fails
			if id, err := ix.AddCtx(ctx, ds.Database[0]); err != nil || id != 0 {
				t.Fatalf("first AddCtx = (%d, %v), want id 0", id, err)
			}
			if _, err := ix.AddCtx(ctx, ds.Database[1]); !errors.Is(err, tc.cause) || !errors.Is(err, ErrWALFailed) {
				t.Fatalf("AddCtx over the fault = %v, want %v wrapped beside ErrWALFailed", err, tc.cause)
			}
			if ffs.Crashed() {
				t.Fatal("the fault crashed the filesystem; this test needs it alive")
			}

			// Nothing is acknowledged behind the failure, and nothing is applied.
			n := ix.Len()
			want := do(t, ix, Query{Traj: ds.Queries[0], K: 2})
			if id, err := ix.AddCtx(ctx, ds.Database[2]); !errors.Is(err, ErrWALFailed) {
				t.Errorf("AddCtx on a failed WAL = (%d, %v), want ErrWALFailed", id, err)
			}
			if ids, err := ix.AddBatchCtx(ctx, ds.Database[2:5]); !errors.Is(err, ErrWALFailed) || len(ids) != 0 {
				t.Errorf("AddBatchCtx on a failed WAL = (%v, %v), want ErrWALFailed and no ids", ids, err)
			}
			if err := ix.Update(0, ds.Database[9]); !errors.Is(err, ErrWALFailed) {
				t.Errorf("Update on a failed WAL = %v, want ErrWALFailed", err)
			}
			if err := ix.Delete(0); !errors.Is(err, ErrWALFailed) {
				t.Errorf("Delete on a failed WAL = %v, want ErrWALFailed", err)
			}
			if tr, ok := ix.Trajectory(0); ix.Len() != n || !ok || !reflect.DeepEqual(tr, ds.Database[0]) {
				t.Errorf("refused mutations changed the index: Len %d (was %d), id 0 present %v", ix.Len(), n, ok)
			}
			assertSameResults(t, "search on a failed WAL", do(t, ix, Query{Traj: ds.Queries[0], K: 2}), want)
			w, s, _ = ffs.Counts()
			if err := ix.Close(); !errors.Is(err, ErrWALFailed) || !errors.Is(err, tc.cause) {
				t.Errorf("Close of a failed index = %v, want the latched failure reported", err)
			}
			if w2, s2, _ := ffs.Counts(); w2 != w || s2 != s {
				t.Errorf("Close of a failed index wrote or fsynced (%d writes, %d fsyncs since the failure)", w2-w, s2-s)
			}
			if _, err := os.Stat(filepath.Join(dir, wal.SnapshotName+".tmp")); (err == nil) != tc.leavesTmp {
				t.Errorf("snapshot temp file present = %v, want it only after the failed rename", err == nil)
			}

			opts.walFS = nil
			re, err := NewIndexWith(m, nil, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				re.Close()
			}()
			adds := []mop{{kind: mopAdd, t: ds.Database[0]}, {kind: mopAdd, t: ds.Database[1]}}
			if L, ok := matchPrefix(re, adds, len(adds)); !ok || L < 1 {
				t.Fatalf("reopen: Len %d, %+v — want a prefix of the two adds that keeps the acknowledged id 0", re.Len(), re.Recovery())
			}
			if info := re.Recovery(); re.Len() != tc.wantLen || info.TornTail != tc.wantTorn {
				t.Fatalf("reopen: Len %d, torn tail %v — want Len %d, torn tail %v", re.Len(), info.TornTail, tc.wantLen, tc.wantTorn)
			}
		})
	}
}

// TestGroupCommitOperationCounts pins the WAL's cost per call on a
// counting filesystem under WALSyncEvery 1: a 64-trajectory AddBatchCtx
// is one log write and one fsync (it was 64 of each), consecutive batches
// one of each per call, and a single AddCtx still exactly one of each.
func TestGroupCommitOperationCounts(t *testing.T) {
	m, ds := untrainedFixture(t)
	ctx := context.Background()
	fs := faultinject.NewFS(nil)
	ix, err := NewIndexWith(m, nil, Options{Shards: 2, WALDir: t.TempDir(), SnapshotEvery: -1, WALSyncEvery: 1, walFS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ix.Close()
	}()
	steps := []struct {
		name string
		run  func() error
		want int // log writes, and fsyncs
	}{
		{"AddBatchCtx of 64", func() error { _, err := ix.AddBatchCtx(ctx, ds.Database[:64]); return err }, 1},
		{"AddCtx", func() error { _, err := ix.AddCtx(ctx, ds.Database[64]); return err }, 1},
		{"three AddBatchCtx of 5", func() error {
			for lo := 65; lo < 80; lo += 5 {
				if _, err := ix.AddBatchCtx(ctx, ds.Database[lo:lo+5]); err != nil {
					return err
				}
			}
			return nil
		}, 3},
		{"Update", func() error { return ix.Update(3, ds.Database[70]) }, 1},
		{"Delete", func() error { return ix.Delete(4) }, 1},
	}
	for _, st := range steps {
		w0, s0, _ := fs.Counts()
		if err := st.run(); err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		if w, s, _ := fs.Counts(); w-w0 != st.want || s-s0 != st.want {
			t.Errorf("%s: %d log writes and %d fsyncs, want %d of each", st.name, w-w0, s-s0, st.want)
		}
	}
}

// TestInMemoryAddBuildsNoWALPayload: an in-memory index has no log, so an
// add builds no WAL payload — beyond the encoder's own objects, AddCtx
// allocates only the code's words (flattening the trajectory for a record
// nobody writes made it two). A durable index still logs whole records:
// the durability script leaves WAL-directory bytes that hash to a pinned
// value (its wal.log is the one recorded when every add still built its
// payload; the pin was re-recorded when the snapshot became a frame file),
// and after a reopen it answers like the in-memory index fed the same
// script.
func TestInMemoryAddBuildsNoWALPayload(t *testing.T) {
	ds := BuildDataset(Porto(), SplitSpec{Seed: 10, Validation: 6, Corpus: 30, Queries: 6, Database: 40}, 9)
	enc, err := NewEncoder(EncoderGeoPTH, DefaultConfig(16), ds.All())
	if err != nil {
		t.Fatal(err)
	}
	mem, err := NewIndexWith(enc, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	tr := ds.Database[0]
	add := testing.AllocsPerRun(200, func() {
		if _, err := mem.AddCtx(ctx, tr); err != nil {
			t.Fatal(err)
		}
	})
	embed := testing.AllocsPerRun(200, func() { enc.Embed(tr) })
	if own := add - embed; own > 1 {
		t.Errorf("in-memory AddCtx allocates %v objects beside the encoder's %v, want at most 1 (the code's words)", own, embed)
	}

	dir := t.TempDir()
	ops := durabilityScript(ds)
	dur, err := NewIndexWith(enc, nil, durableOpts(2, dir, nil))
	if err != nil {
		t.Fatal(err)
	}
	if n, err := applyOps(dur, ops); err != nil {
		t.Fatalf("op %d: %v", n, err)
	}
	if err := dur.Close(); err != nil {
		t.Fatal(err)
	}
	files := dirBytes(t, dir)
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)
	h := fnv.New64a()
	for _, name := range names {
		fmt.Fprintf(h, "%s\x00%d\x00%s", name, len(files[name]), files[name])
	}
	if got, want := h.Sum64(), uint64(0x90a83405952f082b); got != want {
		t.Errorf("WAL directory bytes hash to %#x, want %#x", got, want)
	}
	re, err := NewIndexWith(enc, nil, durableOpts(2, dir, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	items := itemsOf(ops)
	_, live := expectedAfter(items, len(items))
	assertIndexParity(t, "reopened", re, oracleIndex(t, enc, 2, ops), ds.Queries, live)
}

// countingEncoder wraps an Encoder and counts trajectories embedded
// across every embed path — the probe the fail-fast contract tests use
// to prove a canceled context costs no encoder forward passes.
type countingEncoder struct {
	Encoder
	embeds atomic.Int64
}

func (c *countingEncoder) Embed(t Trajectory) []float64 {
	c.embeds.Add(1)
	return c.Encoder.Embed(t)
}

func (c *countingEncoder) EmbedAll(ts []Trajectory) [][]float64 {
	c.embeds.Add(int64(len(ts)))
	return c.Encoder.EmbedAll(ts)
}

func (c *countingEncoder) EmbedAllParallel(ts []Trajectory, workers int) [][]float64 {
	c.embeds.Add(int64(len(ts)))
	return c.Encoder.EmbedAllParallel(ts, workers)
}

// TestAddBatchCtxFailsFastBeforeEmbedding locks AddBatchCtx's fail-fast
// contract at its expensive step: a context that is already done when
// the call is made must cost ZERO embedding work. Before the fix the
// whole batch went through EmbedAllParallel before the first ctx check,
// so a canceled 10k-item batch still paid 10k forward passes.
func TestAddBatchCtxFailsFastBeforeEmbedding(t *testing.T) {
	m, ds := untrainedFixture(t)
	enc := &countingEncoder{Encoder: m}
	ix, err := NewIndexWith(enc, ds.Database[:2], Options{})
	if err != nil {
		t.Fatal(err)
	}
	seeded := enc.embeds.Load()

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	ids, err := ix.AddBatchCtx(canceled, ds.Database[2:60])
	if !errors.Is(err, context.Canceled) || len(ids) != 0 {
		t.Fatalf("AddBatchCtx on canceled ctx = (%v, %v), want (none, context.Canceled)", ids, err)
	}
	if got := enc.embeds.Load(); got != seeded {
		t.Fatalf("canceled AddBatchCtx embedded %d trajectories; fail-fast means zero", got-seeded)
	}
	if ix.Len() != 2 {
		t.Fatalf("canceled AddBatchCtx mutated the index (Len=%d)", ix.Len())
	}

	// The live path still embeds (once per item) and applies.
	ids, err = ix.AddBatchCtx(context.Background(), ds.Database[2:4])
	if err != nil || len(ids) != 2 {
		t.Fatalf("live AddBatchCtx = (%v, %v)", ids, err)
	}
	if got := enc.embeds.Load(); got != seeded+2 {
		t.Fatalf("live AddBatchCtx embedded %d trajectories, want 2", got-seeded)
	}
}

// TestRecoveryInfoTornFirstRecord locks the RecoveryInfo normalization
// of restore's no-state path: a clean fresh directory (and a reopen of a
// directory that saw no mutations) reports no recovery, while a
// directory whose ONLY record was torn by a crash reports
// Recovered+TornTail — before the fix both cases looked identical
// (Recovered == false), so callers could not tell "nothing ever
// happened here" from "a crash ate the only record".
func TestRecoveryInfoTornFirstRecord(t *testing.T) {
	m, ds := untrainedFixture(t)
	dir := t.TempDir()
	opts := Options{WALDir: dir}

	ix, err := NewIndexWith(m, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if info := ix.Recovery(); info.Recovered || info.TornTail {
		t.Fatalf("fresh directory RecoveryInfo = %+v, want the zero value", info)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopening a directory a previous run opened but never mutated is
	// still not a recovery: the log holds only its magic header.
	ix, err = NewIndexWith(m, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if info := ix.Recovery(); info.Recovered || info.TornTail {
		t.Fatalf("no-mutation reopen RecoveryInfo = %+v, want the zero value", info)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the first record: a crash mid-append of the only mutation ever
	// attempted leaves a partial frame header after the magic.
	f, err := os.OpenFile(filepath.Join(dir, wal.LogName), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	ix, err = NewIndexWith(m, ds.Database[:4], opts)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ix.Close()
	}()
	info := ix.Recovery()
	if !info.Recovered || !info.TornTail {
		t.Fatalf("torn-only reopen RecoveryInfo = %+v, want Recovered and TornTail", info)
	}
	if info.FromSnapshot != 0 || info.Replayed != 0 {
		t.Fatalf("torn-only reopen RecoveryInfo = %+v, want nothing restored", info)
	}
	// Nothing was restored, so the initial batch still seeds the index.
	if ix.Len() != 4 {
		t.Fatalf("torn-only reopen Len = %d, want the 4 seed trajectories", ix.Len())
	}
}

// TestIndexAddCtx locks satellite (a) at the facade: a done context
// fails fast, and a batch canceled midway reports exactly the applied
// prefix — which for a durable index is also the logged prefix.
func TestIndexAddCtx(t *testing.T) {
	m, ds := untrainedFixture(t)
	ix, err := NewIndexWith(m, ds.Database[:2], Options{})
	if err != nil {
		t.Fatal(err)
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ix.AddCtx(canceled, ds.Database[5]); !errors.Is(err, context.Canceled) {
		t.Fatalf("AddCtx on canceled ctx = %v", err)
	}
	if ids, err := ix.AddBatchCtx(canceled, ds.Database[5:9]); err == nil || len(ids) != 0 {
		t.Fatalf("AddBatchCtx on canceled ctx = (%v, %v)", ids, err)
	}
	if ix.Len() != 2 {
		t.Fatalf("canceled adds mutated the index (Len=%d)", ix.Len())
	}
	if id, err := ix.AddCtx(context.Background(), ds.Database[5]); err != nil || id != 2 {
		t.Fatalf("live AddCtx = (%d, %v), want id 2", id, err)
	}
	if ids, err := ix.AddBatchCtx(context.Background(), ds.Database[6:8]); err != nil || len(ids) != 2 {
		t.Fatalf("live AddBatchCtx = (%v, %v)", ids, err)
	}
}

// dirBytes reads every file of the (flat) WAL directory, keyed by name.
func dirBytes(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string]string{}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = string(b)
	}
	return files
}

// TestNonFiniteEmbeddingIsRefused: a trajectory GeoPTH cannot embed to
// finite coordinates — empty, a coordinate whose square overflows, a NaN
// coordinate; every prototype distance is +Inf and every gap Inf − Inf —
// used to be indexed, WAL-logged and answered with NaN scores under
// Complete: true. Every entry point of the facade now refuses it with
// ErrNonFiniteEmbedding: mutations leave the index and the WAL directory
// byte-for-byte as they were, queries consult no shard.
func TestNonFiniteEmbeddingIsRefused(t *testing.T) {
	ds := BuildDataset(Porto(), SplitSpec{Seed: 10, Validation: 6, Corpus: 30, Queries: 6, Database: 40}, 9)
	enc, err := NewEncoder(EncoderGeoPTH, DefaultConfig(16), ds.All())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	reg := NewMetricsRegistry()
	opts := durableOpts(2, dir, nil)
	opts.Metrics = reg
	ix, err := NewIndexWith(enc, ds.Database, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	ctx := context.Background()
	good := ds.Queries[0]
	n := ix.Len()
	traj0, _ := ix.Trajectory(0)
	emb0, _ := ix.Embedding(0)
	wantGood := do(t, ix, Query{Traj: good, K: 3})
	searches := ix.Stats().Counters["engine.search.total"]
	disk := dirBytes(t, dir)

	refused := func(what string, err error) {
		t.Helper()
		if !errors.Is(err, ErrNonFiniteEmbedding) {
			t.Errorf("%s: error %v, want ErrNonFiniteEmbedding", what, err)
		}
	}
	for name, bad := range map[string]Trajectory{
		"empty":       nil,
		"overflowing": {{X: 1e200}},
		"NaN":         {{X: 1, Y: 2}, {X: math.NaN(), Y: 1}},
	} {
		_, err := ix.AddCtx(ctx, bad)
		refused(name+" AddCtx", err)
		refused(name+" Update", ix.Update(0, bad))
		_, st := ix.WithinCtx(ctx, bad, 1)
		refused(name+" WithinCtx", st.Err)
		if len(bad) > 0 { // an empty Query.Traj is the "no input" query
			rs, st := ix.Do(ctx, Query{Traj: bad, K: 3})
			refused(name+" Do", st.Err)
			if rs != nil || st.Complete || st.ShardsOK != 0 {
				t.Errorf("%s Do: got (%v, %+v), want no results and no shard consulted", name, rs, st)
			}
		}
		// The rest of a batch is answered as if the bad query were not there.
		rss, sts := ix.SearchBatchCtx(ctx, []Trajectory{good, bad, good}, 3)
		refused(name+" SearchBatchCtx", sts[1].Err)
		if rss[1] != nil || !reflect.DeepEqual(rss[0], wantGood) || !reflect.DeepEqual(rss[2], wantGood) || !sts[0].Complete || !sts[2].Complete {
			t.Errorf("%s SearchBatchCtx: results %v statuses %+v, want %v around a refused query", name, rss, sts, wantGood)
		}
		searches += 2
	}
	_, st := ix.Do(ctx, Query{Vec: []float64{1, math.Inf(-1), 3}, K: 3})
	refused("Do with an infinite Vec", st.Err)

	if got := ix.Stats().Counters["engine.search.total"]; got != searches {
		t.Errorf("engine.search.total = %d, want %d: a refused query reached the engine", got, searches)
	}
	if _, ok := ix.Trajectory(n); ok || ix.Len() != n {
		t.Errorf("refused adds grew the index to Len %d (id %d assigned: %v)", ix.Len(), n, ok)
	}
	if tr, _ := ix.Trajectory(0); !reflect.DeepEqual(tr, traj0) {
		t.Error("a refused Update replaced the stored trajectory")
	}
	if e, _ := ix.Embedding(0); !reflect.DeepEqual(e, emb0) {
		t.Error("a refused Update replaced the stored embedding")
	}
	if !reflect.DeepEqual(dirBytes(t, dir), disk) {
		t.Error("refused mutations changed the WAL directory")
	}

	// A batch stops at the refused item and reports the applied prefix,
	// which is what a reopen recovers.
	ids, err := ix.AddBatchCtx(ctx, []Trajectory{ds.Queries[1], ds.Queries[2], {{X: 1e200}}, ds.Queries[3]})
	refused("AddBatchCtx", err)
	if !reflect.DeepEqual(ids, []int{n, n + 1}) {
		t.Fatalf("AddBatchCtx applied ids %v, want [%d %d]", ids, n, n+1)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := NewIndexWith(enc, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != n+2 {
		t.Errorf("reopened Len = %d, want %d", re.Len(), n+2)
	}
}
