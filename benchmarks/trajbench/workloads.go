package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	"traj2hash"
	"traj2hash/internal/core"
	"traj2hash/internal/dist"
	"traj2hash/internal/hamming"
)

// fixture is one workload after set-up: an index (and whatever serves
// it) plus the inputs drawn from the seed.
type fixture interface {
	// checksum identifies the generated inputs; it changes with --seed.
	checksum() string
	// window drives the workload's real (not decomposed) operation for
	// dur and returns every sample. It may be called more than once.
	window(ctx context.Context, dur time.Duration) []sample
	// primary selects the samples the op_* metrics are taken over.
	primary(opKind) bool
	// named reports the workload's metrics under the names ISSUE 11 gave
	// them (METRICS.json), from the window's samples that were due in
	// [from, to) and from what set-up recorded.
	named(samples []sample, from, to time.Duration, out *metricSet)
	// verify runs the workload's correctness checks after the window and
	// reports how many it made and which failed; it may add extras.
	verify(ctx context.Context, extras *metricSet) (checks int, problems []string)
	// trace runs the decomposed operation once, recording spans when rec
	// is not nil (a nil recorder makes the same calls with no spans, the
	// baseline of the tracing overhead). It reports whether the operation
	// succeeded.
	trace(ctx context.Context, rec *recorder, i int) bool
	// shares turns a finished recording into each layer's share of the
	// operation's wall time.
	shares(rec *recorder) layerShares
	// close releases the index, any server, and the fixture's files.
	close() error
}

// secondPhase is implemented by a workload whose measured part has a
// second timed loop: the window gets the first half of the run, the second
// phase the other half, and reports its own metrics.
type secondPhase interface {
	second(ctx context.Context, dur, warm time.Duration, out *metricSet) (attempted, failed int)
}

// searchNamed reports a search window under the issue's names.
func searchNamed(st loopStats, qps bool, out *metricSet) {
	out.set("search_p50_ms", st.p50, "ms")
	out.set("search_p99_ms", st.q(0.99), "ms")
	if qps {
		out.set("search_qps", st.perSec, "ops/s")
	}
}

func mutateNamed(st loopStats, out *metricSet) {
	out.set("mutate_p50_ms", st.p50, "ms")
	out.set("mutate_p95_ms", st.q(0.95), "ms")
}

// workloadDef names a workload and builds its fixture. reg is nil except
// for the instrumented twin a traced run builds to measure obs overhead.
type workloadDef struct {
	name  string
	why   string
	setup func(ctx context.Context, e env, reg *traj2hash.MetricsRegistry, dir string) (fixture, error)
}

var workloads = []workloadDef{
	{"query_attention", "embed-bound reads: attention encoder at d=64 on a small index, so core+nn are ~95% of a search", setupQueryAttention},
	{"scan_100k", "engine-bound reads: pre-embedded GeoPTH queries over 100K items, hybrid Hamming search then the Euclidean scan", setupScan},
	{"serve_mixed", "serving-bound: open-loop HTTP at 200 rps, 85% search and 15% durable mutations, GeoPTH on a WAL-backed index", setupServe},
	{"write_path", "write-bound: train and bulk-ingest, then single durable mutations, then close, reopen and replay", setupWritePath},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// ---- oracles (benchmark-side, independent of the engine's kernels) ----

type scored struct {
	id    int
	score float64
}

// rank sorts by (score, id) ascending — the engine's documented
// tie-break — and keeps the best k.
func rank(all []scored, k int) []scored {
	sort.Slice(all, func(i, j int) bool {
		//lint:ignore floatcompare exact tie detection is the point: equal scores fall through to the id order
		if all[i].score != all[j].score {
			return all[i].score < all[j].score
		}
		return all[i].id < all[j].id
	})
	if len(all) > k {
		all = all[:k]
	}
	return all
}

// naiveHamming is the Hamming top-k of q over codes[id] for the live ids.
func naiveHamming(q hamming.Code, codes []hamming.Code, live []int, k int) []scored {
	all := make([]scored, 0, len(live))
	for _, id := range live {
		d := 0
		for w := range q.Words {
			d += bits.OnesCount64(q.Words[w] ^ codes[id].Words[w])
		}
		all = append(all, scored{id, float64(d)})
	}
	return rank(all, k)
}

// naiveEuclid is the squared-Euclidean top-k of q over embs[id].
func naiveEuclid(q []float64, embs [][]float64, live []int, k int) []scored {
	all := make([]scored, 0, len(live))
	for _, id := range live {
		var s float64
		for j, v := range embs[id] {
			d := q[j] - v
			s += d * d
		}
		all = append(all, scored{id, s})
	}
	return rank(all, k)
}

// sameAnswer compares a facade answer with an oracle answer: ids in
// order, and scores to a relative 1e-9 (the Euclidean scan may sum in a
// different order than the oracle; Hamming scores are small integers).
func sameAnswer(got []traj2hash.Result, want []scored) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].ID != want[i].id {
			return false
		}
		if math.Abs(got[i].Score-want[i].score) > 1e-9*(1+math.Abs(want[i].score)) {
			return false
		}
	}
	return true
}

// identical reports whether two answers are the same bytes: ids, and
// scores compared as bit patterns.
func identical(a, b []traj2hash.Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || math.Float64bits(a[i].Score) != math.Float64bits(b[i].Score) {
			return false
		}
	}
	return true
}

// snapshotIndex copies out the embedding and code of every live id in
// [0, n), for the oracles.
func snapshotIndex(ix *traj2hash.Index, n int) (embs [][]float64, codes []hamming.Code, live []int) {
	embs = make([][]float64, n)
	codes = make([]hamming.Code, n)
	for id := 0; id < n; id++ {
		e, ok := ix.Embedding(id)
		if !ok {
			continue
		}
		embs[id] = e
		codes[id] = hamming.FromSigns(e)
		live = append(live, id)
	}
	return embs, codes, live
}

func completeTopK(rs []traj2hash.Result, st traj2hash.Status) bool {
	return st.Complete && len(rs) == topK
}

// ---- query_attention ----

type attentionFixture struct {
	e     env
	enc   *core.Model
	ix    *traj2hash.Index
	db    []traj2hash.Trajectory
	pool  []traj2hash.Trajectory
	truth [][]int // exact Fréchet top-10 of pool[:truthQueries] over db
	sum   string
}

func setupQueryAttention(ctx context.Context, e env, reg *traj2hash.MetricsRegistry, _ string) (fixture, error) {
	sc := e.sc
	train := e.trips(1, sc.trainSeeds+sc.trainVal+sc.trainCorpus)
	db := e.trips(2, sc.attentionDB)
	pool := e.trips(3, sc.attentionPool)
	tr, err := e.trainAttention(ctx, append(append([]traj2hash.Trajectory{}, train...), db...))
	if err != nil {
		return nil, err
	}
	opts := e.indexOptions()
	opts.Metrics = reg
	ix, err := traj2hash.NewIndexWith(tr.enc, nil, opts)
	if err != nil {
		return nil, err
	}
	if err := ingest(ctx, ix, db); err != nil {
		return nil, err
	}
	return &attentionFixture{
		e: e, enc: tr.enc, ix: ix, db: db, pool: pool,
		truth: traj2hash.GroundTruth(dist.FrechetDist, pool[:sc.truthQueries], db, topK),
		sum:   checksumOf(train, db, pool),
	}, nil
}

func (f *attentionFixture) checksum() string               { return f.sum }
func (f *attentionFixture) primary(k opKind) bool          { return searchKind(k) }
func (f *attentionFixture) close() error                   { return f.ix.Close() }
func (f *attentionFixture) shares(r *recorder) layerShares { return r.shares("op.search") }

func (f *attentionFixture) named(samples []sample, from, to time.Duration, out *metricSet) {
	searchNamed(summarize(samples, from, to, searchKind), true, out)
}

func (f *attentionFixture) window(ctx context.Context, dur time.Duration) []sample {
	return closedLoop(ctx, f.e.workers, dur, func(_, i int) (opKind, bool) {
		rs, st := f.ix.SearchCtx(ctx, f.pool[i%len(f.pool)], topK)
		return opSearch, completeTopK(rs, st)
	})
}

func (f *attentionFixture) trace(ctx context.Context, rec *recorder, i int) bool {
	q := f.pool[i%len(f.pool)]
	op := rec.begin("op.search", "")
	var emb []float64
	rec.child(op, "core.embed", layerCore, func() { emb = f.enc.Embed(q) })
	rec.child(op, "hamming.sign", layerHamming, func() { _ = hamming.FromSigns(emb) })
	var ok bool
	rec.child(op, "engine.search", layerEngine, func() {
		rs, st := f.ix.SearchByVecCtx(ctx, emb, topK)
		ok = completeTopK(rs, st)
	})
	rec.end(op)
	return ok
}

func (f *attentionFixture) verify(ctx context.Context, extras *metricSet) (int, []string) {
	var problems []string
	checks := 0
	// hr10 against exact Fréchet top-10.
	returned := make([][]int, len(f.truth))
	for qi := range f.truth {
		rs, _ := f.ix.SearchCtx(ctx, f.pool[qi], topK)
		for _, r := range rs {
			returned[qi] = append(returned[qi], r.ID)
		}
	}
	extras.set("hr10", traj2hash.Evaluate(returned, f.truth).HR10, "ratio")
	// The facade's answer must be the naive Hamming top-k of its own codes.
	_, codes, live := snapshotIndex(f.ix, len(f.db))
	for qi := 0; qi < f.e.sc.oracleQueries && qi < len(f.pool); qi++ {
		checks++
		q := f.pool[qi]
		got, _ := f.ix.SearchCtx(ctx, q, topK)
		if !sameAnswer(got, naiveHamming(f.enc.Code(q), codes, live, topK)) {
			problems = append(problems, fmt.Sprintf("query %d: hybrid answer differs from the naive Hamming oracle", qi))
		}
	}
	return checks, problems
}

// ---- scan_100k ----

type scanFixture struct {
	e   env
	ix  *traj2hash.Index
	n   int
	qe  [][]float64 // pre-embedded queries
	sum string

	searches atomic.Int64 // searches issued by window, for the fast-path share
	fast0    int64        // HybridFastPaths before the first window
}

func setupScan(ctx context.Context, e env, reg *traj2hash.MetricsRegistry, _ string) (fixture, error) {
	db := e.trips(1, e.sc.scanDB)
	pool := e.trips(2, e.sc.scanPool)
	enc, err := e.scanHasher()
	if err != nil {
		return nil, err
	}
	opts := e.indexOptions()
	opts.Metrics = reg
	ix, err := traj2hash.NewIndexWith(enc, nil, opts)
	if err != nil {
		return nil, err
	}
	if err := ingest(ctx, ix, db); err != nil {
		return nil, err
	}
	return &scanFixture{
		e: e, ix: ix, n: len(db), qe: enc.EmbedAllParallel(pool, e.workers),
		sum: checksumOf(db, pool), fast0: ix.HybridFastPaths(),
	}, nil
}

func (f *scanFixture) checksum() string               { return f.sum }
func (f *scanFixture) primary(k opKind) bool          { return searchKind(k) }
func (f *scanFixture) close() error                   { return f.ix.Close() }
func (f *scanFixture) shares(r *recorder) layerShares { return r.shares("op.search") }

func (f *scanFixture) named(samples []sample, from, to time.Duration, out *metricSet) {
	searchNamed(summarize(samples, from, to, searchKind), true, out)
}

// second is phase B: the Euclidean scan the paper compares against, over
// the same index and queries, same loop.
func (f *scanFixture) second(ctx context.Context, dur, warm time.Duration, out *metricSet) (attempted, failed int) {
	samples := closedLoop(ctx, f.e.workers, dur, func(_, i int) (opKind, bool) {
		return opSearch, len(f.ix.SearchEuclideanByVec(f.qe[i%len(f.qe)], topK)) == topK
	})
	st := summarize(samples, warm, dur, searchKind)
	out.set("search_euclid_p50_ms", st.p50, "ms")
	out.set("search_euclid_qps", st.perSec, "ops/s")
	out.set("search_euclid_samples", float64(st.n), "count")
	return st.n, st.failed
}

func (f *scanFixture) window(ctx context.Context, dur time.Duration) []sample {
	return closedLoop(ctx, f.e.workers, dur, func(_, i int) (opKind, bool) {
		f.searches.Add(1)
		rs, st := f.ix.SearchByVecCtx(ctx, f.qe[i%len(f.qe)], topK)
		return opSearch, completeTopK(rs, st)
	})
}

func (f *scanFixture) trace(ctx context.Context, rec *recorder, i int) bool {
	emb := f.qe[i%len(f.qe)]
	op := rec.begin("op.search", "")
	rec.child(op, "hamming.sign", layerHamming, func() { _ = hamming.FromSigns(emb) })
	var ok bool
	rec.child(op, "engine.search", layerEngine, func() {
		rs, st := f.ix.SearchByVecCtx(ctx, emb, topK)
		ok = completeTopK(rs, st)
	})
	rec.end(op)
	return ok
}

func (f *scanFixture) verify(ctx context.Context, extras *metricSet) (int, []string) {
	var problems []string
	checks := 0
	if n := f.searches.Load(); n > 0 {
		// One hybrid call per shard per search: useful outcomes per attempt.
		calls := float64(n) * float64(f.e.workers)
		extras.set("hybrid_fastpath_share", float64(f.ix.HybridFastPaths()-f.fast0)/calls, "ratio")
	}
	embs, codes, live := snapshotIndex(f.ix, f.n)
	for qi := 0; qi < f.e.sc.oracleQueries && qi < len(f.qe); qi++ {
		checks++
		q := f.qe[qi]
		got, _ := f.ix.SearchByVecCtx(ctx, q, topK)
		if !sameAnswer(got, naiveHamming(hamming.FromSigns(q), codes, live, topK)) {
			problems = append(problems, fmt.Sprintf("query %d: hybrid answer differs from the naive Hamming oracle", qi))
		}
		if qi%5 != 0 { // the Euclidean oracle costs 64× a Hamming one; check a fifth
			continue
		}
		checks++
		if !sameAnswer(f.ix.SearchEuclideanByVec(q, topK), naiveEuclid(q, embs, live, topK)) {
			problems = append(problems, fmt.Sprintf("query %d: Euclidean-BF answer differs from the naive scan", qi))
		}
	}
	return checks, problems
}

// ---- write_path ----

type writeFixture struct {
	e       env
	enc     *core.Model
	ix      *traj2hash.Index
	opts    traj2hash.Options
	pool    []traj2hash.Trajectory
	queries []traj2hash.Trajectory
	sum     string

	trainSteps int           // optimizer steps of the fixed training run …
	trainTook  time.Duration // … and its wall time
	ingestTook time.Duration // wall time of the bulk ingest

	// Mutation bookkeeping; the window runs one worker, so no lock.
	owned     []int // ids this run added and has not deleted, oldest first
	maxID     int
	cursor    int
	mutations int     // mutations applied so far
	diskRatio float64 // bytes under WALDir ÷ bytes of live user data after diskAt mutations

	// twins for the decomposed operation (built on first trace call)
	twin *mutationTwin
}

func setupWritePath(ctx context.Context, e env, reg *traj2hash.MetricsRegistry, dir string) (fixture, error) {
	sc := e.sc
	train := e.trips(1, sc.trainSeeds+sc.trainVal+sc.trainCorpus)
	bulk := e.trips(2, sc.writeBulk)
	pool := e.trips(3, sc.mutatePool)
	queries := e.trips(4, sc.oracleQueries)
	tr, err := e.trainAttention(ctx, append(append([]traj2hash.Trajectory{}, train...), bulk...))
	if err != nil {
		return nil, err
	}
	opts := e.indexOptions()
	opts.Metrics = reg
	opts.WALDir = filepath.Join(dir, "wal")
	opts.WALSyncEvery = 1
	ix, err := traj2hash.NewIndexWith(tr.enc, nil, opts)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if err := ingest(ctx, ix, bulk); err != nil {
		return nil, err
	}
	return &writeFixture{
		e: e, enc: tr.enc, ix: ix, opts: opts, pool: pool, queries: queries,
		sum: checksumOf(train, bulk, pool, queries), maxID: len(bulk) - 1,
		trainSteps: len(tr.steps), trainTook: tr.took, ingestTook: time.Since(t0),
	}, nil
}

func (f *writeFixture) checksum() string      { return f.sum }
func (f *writeFixture) primary(k opKind) bool { return mutationKind(k) }

func (f *writeFixture) close() error {
	err := f.ix.Close()
	if f.twin != nil {
		err = errors.Join(err, f.twin.close())
	}
	return err
}

// diskBytesPerUserByte is bytes under WALDir ÷ (16 B × live trajectory
// points). It is a count, and repeats exactly for a seed, because it is
// taken after a fixed number of mutations, not when the clock ran out.
func (f *writeFixture) diskBytesPerUserByte() (float64, error) {
	var livePoints int
	for id := 0; id <= f.maxID; id++ {
		if t, ok := f.ix.Trajectory(id); ok {
			livePoints += len(t)
		}
	}
	disk, err := dirBytes(f.opts.WALDir)
	if err != nil || livePoints == 0 {
		return 0, fmt.Errorf("sizing the WAL directory: %d live points, %v", livePoints, err)
	}
	return float64(disk) / float64(16*livePoints), nil
}

// mutate applies mutation i of the fixed Add:Add:Add:Update:Delete cycle.
func (f *writeFixture) mutate(ctx context.Context, i int) (opKind, bool) {
	if f.mutations == f.e.sc.diskAt {
		// One sample in thousands carries this directory listing.
		//lint:ignore errcheck a failed sizing leaves the ratio 0, which verify reports
		f.diskRatio, _ = f.diskBytesPerUserByte()
	}
	f.mutations++
	t := f.pool[f.cursor%len(f.pool)]
	f.cursor++
	switch {
	case i%5 == 3 && len(f.owned) > 0:
		return opUpdate, f.ix.Update(f.owned[i%len(f.owned)], t) == nil
	case i%5 == 4 && len(f.owned) > 0:
		id := f.owned[0]
		f.owned = f.owned[1:]
		return opDelete, f.ix.Delete(id) == nil
	}
	id, err := f.ix.AddCtx(ctx, t)
	if err != nil {
		return opAdd, false
	}
	f.owned = append(f.owned, id)
	if id > f.maxID {
		f.maxID = id
	}
	return opAdd, true
}

func (f *writeFixture) window(ctx context.Context, dur time.Duration) []sample {
	return closedLoop(ctx, 1, dur, func(_, i int) (opKind, bool) { return f.mutate(ctx, i) })
}

func (f *writeFixture) named(samples []sample, from, to time.Duration, out *metricSet) {
	mutateNamed(summarize(samples, from, to, mutationKind), out)
	out.set("train_steps_per_s", float64(f.trainSteps)/f.trainTook.Seconds(), "steps/s")
	out.set("ingest_traj_per_s", float64(f.e.sc.writeBulk)/f.ingestTook.Seconds(), "traj/s")
}

func (f *writeFixture) verify(ctx context.Context, extras *metricSet) (int, []string) {
	var problems []string
	// Record answers and the live set, close, reopen, compare.
	before := make([][]traj2hash.Result, len(f.queries))
	for i, q := range f.queries {
		before[i], _ = f.ix.SearchCtx(ctx, q, topK)
	}
	wantLen := f.ix.Len()
	if f.diskRatio <= 0 {
		// The window ended before diskAt mutations (a short --seconds): size
		// the directory now; the number then depends on where the clock ran out.
		var err error
		if f.diskRatio, err = f.diskBytesPerUserByte(); err != nil {
			problems = append(problems, err.Error())
		}
	}
	extras.set("disk_bytes_per_user_byte", f.diskRatio, "ratio")
	t0 := time.Now()
	if err := f.ix.Close(); err != nil {
		problems = append(problems, fmt.Sprintf("close: %v", err))
	}
	extras.set("close_s", time.Since(t0).Seconds(), "s")
	t0 = time.Now()
	re, err := traj2hash.NewIndexWith(f.enc, nil, f.opts)
	if err != nil {
		return 1, append(problems, fmt.Sprintf("reopen: %v", err))
	}
	extras.set("recover_s", time.Since(t0).Seconds(), "s")
	f.ix = re
	checks := 1
	if re.Len() != wantLen {
		problems = append(problems, fmt.Sprintf("reopened index has %d live items, had %d before Close", re.Len(), wantLen))
	}
	for i, q := range f.queries {
		checks++
		after, st := re.SearchCtx(ctx, q, topK)
		if !st.Complete || !identical(before[i], after) {
			problems = append(problems, fmt.Sprintf("query %d: reopened index answers differently than before Close", i))
		}
	}
	return checks, problems
}

func (f *writeFixture) shares(r *recorder) layerShares { return r.shares("op.mutate") }

// trace runs mutation i of the same cycle on twin layer objects — the
// encoder, then an engine and a WAL store of the facade's configuration —
// because the facade's AddCtx/Update/Delete are single public calls and
// spans may only wrap public calls.
func (f *writeFixture) trace(_ context.Context, rec *recorder, i int) bool {
	if f.twin == nil {
		tw, err := newMutationTwin(f.e, filepath.Join(filepath.Dir(f.opts.WALDir), "twin-wal"))
		if err != nil {
			return false
		}
		f.twin = tw
	}
	t := f.pool[f.cursor%len(f.pool)]
	f.cursor++
	return f.twin.mutate(rec, f.enc, t, i)
}

// removeAll deletes a scratch directory and joins its error to err.
func removeAll(err error, dir string) error {
	return errors.Join(err, os.RemoveAll(dir))
}
