package traj2hash

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"traj2hash/internal/engine"
	"traj2hash/internal/hamming"
	"traj2hash/internal/obs"
	"traj2hash/internal/wal"
)

// Typed mutation errors, re-exported from the engine: Delete/Update on
// an id the index never assigned reports ErrNotFound; on an id that was
// assigned and later deleted, ErrDeleted (ids are never reused, so the
// two stay distinguishable forever). Test with errors.Is.
var (
	ErrNotFound = engine.ErrNotFound
	ErrDeleted  = engine.ErrDeleted
)

// ErrClosed is returned by AddCtx/AddBatchCtx/Delete/Update after Close has
// released a durable index's WAL: once the log handle is gone a mutation
// could only succeed in memory while silently breaking the durability
// promise, so the whole mutation is refused instead. Queries keep
// working. Test with errors.Is.
var ErrClosed = errors.New("traj2hash: index closed")

// ErrWALFailed is returned (wrapped, beside its cause) by the mutation
// whose WAL write, fsync or snapshot failed, and by every
// AddCtx/AddBatchCtx/Delete/Update after it: a failed write leaves a
// partial record in the log that recovery truncates together with
// everything behind it, so a later mutation could be acknowledged and then
// lost. Like a closed index, a failed one refuses mutations whole — no
// in-memory change — and keeps answering queries; Close it and reopen the
// directory with NewIndexWith to recover. Test with errors.Is.
var ErrWALFailed = wal.ErrFailed

// ErrNonFiniteEmbedding is returned — by the mutations directly, by the
// queries in Status.Err — when the embedding of a trajectory (or a
// caller-supplied Query.Vec) has a NaN or infinite coordinate: an empty
// trajectory or an overflowing coordinate under GeoPTH, diverged weights
// under a neural encoder. Such a vector has no distance to anything, so
// it is refused where it enters the index: nothing is indexed or logged,
// and no shard is consulted. Test with errors.Is.
var ErrNonFiniteEmbedding = errors.New("traj2hash: embedding has a non-finite coordinate")

// checkEmbedding reports ErrNonFiniteEmbedding for a vector the engine
// must not see.
func checkEmbedding(emb []float64) error {
	for _, v := range emb {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return ErrNonFiniteEmbedding
		}
	}
	return nil
}

// checkQueryVec is checkEmbedding for a query: the vector must also have
// the encoder's dimension, or no stored item has a distance to it.
func (ix *Index) checkQueryVec(emb []float64) error {
	if err := checkEmbedding(emb); err != nil {
		return err
	}
	if len(emb) != ix.enc.Dim() {
		return fmt.Errorf("traj2hash: query vector has dimension %d, the index's encoder embeds to %d", len(emb), ix.enc.Dim())
	}
	return nil
}

// Status reports how completely a context-aware query was answered — the
// failure-domain contract of the query engine (DESIGN.md "Failure
// semantics & graceful degradation"). A query never blocks past its
// context and never crashes the process: a panicking shard backend
// degrades the answer into a smaller result set, and an expired deadline
// returns whatever shards answered in time. Complete is true iff the
// results are the exact full answer; otherwise Err carries the joined
// per-shard failures and/or the context error.
type Status = engine.Status

// Result is one search hit: the database id and the score in the space
// the query was answered in (squared Euclidean distance in SpaceEuclidean,
// Hamming distance in SpaceHamming — smaller is more similar in both).
type Result = engine.Result

// Space names the space a Query is ranked in — the paper's two retrieval
// settings. Both answers are exact in their space, and the index picks
// the strategy that computes them: a caller chooses what "similar" means,
// never how it is searched.
type Space int

const (
	// SpaceHamming ranks by Hamming distance between hash codes (the
	// paper's Table II) — the zero value, answered by the Section V-E
	// hybrid lookup.
	SpaceHamming Space = iota
	// SpaceEuclidean ranks by squared Euclidean distance between
	// embeddings (the paper's Table I), answered by an exact scan.
	SpaceEuclidean
)

// spaceStrategies is the fixed rule by which Do routes a Space to the
// engine strategy that answers it; NewIndexWith maintains exactly these.
var spaceStrategies = [...]string{
	SpaceHamming:   engine.HammingHybridName,
	SpaceEuclidean: engine.EuclideanBFName,
}

// Query is one top-k search: a representation of the query trajectory, a
// result count, and the space to rank in. Exactly one of Traj, Vec and
// Code must be set — they are the three stages of the same pipeline
// (trajectory → Encoder.Embed → SignCode), so a caller that already holds
// a later stage skips the work before it: Vec amortizes the forward pass
// over repeated searches, Code additionally skips the sign hash but can
// only be answered in SpaceHamming.
type Query struct {
	// Traj is a raw query trajectory; Do embeds it with the index's encoder.
	Traj Trajectory
	// Vec is a precomputed query embedding (from Encoder.Embed). The
	// Hamming code is derived from its signs, so one forward pass serves
	// both spaces.
	Vec []float64
	// Code is a precomputed query code (from Encoder.Code or SignCode). A
	// bare code carries no embedding, so it is an error to rank it in
	// SpaceEuclidean.
	Code Code
	// K is the number of results wanted; K <= 0 is answered with the
	// empty, complete result.
	K int
	// Space is the space to rank in; the zero value is SpaceHamming.
	Space Space
}

// Options configures an Index. The zero value is valid: a single shard
// with GOMAXPROCS workers.
type Options struct {
	// Shards partitions the database; queries fan out across shards in
	// parallel and adds only lock one shard. ≤ 0 means 1.
	Shards int
	// Workers bounds the index's parallelism: batch embedding and the
	// (query, shard) search fan-out. ≤ 0 means GOMAXPROCS.
	Workers int
	// Metrics, when non-nil, is the observability registry the index's
	// query engine records into (search counters, per-shard latency
	// histograms, spans — see DESIGN.md "Observability"). nil leaves the
	// engine entirely uninstrumented; Stats then reports an empty
	// snapshot. Several indexes may share one registry (counters
	// accumulate), including DefaultMetricsRegistry().
	Metrics *MetricsRegistry
	// WALDir, when non-empty, makes the index durable: every mutation
	// (Add/Delete/Update) is appended to a CRC-checksummed write-ahead
	// log in this directory before its call returns, snapshots are taken
	// every SnapshotEvery mutations, and NewIndexWith recovers whatever a
	// previous run left there — loading the latest snapshot, replaying
	// the log tail, and truncating a torn final record. Empty disables
	// durability entirely (a purely in-memory index).
	WALDir string
	// SnapshotEvery is the snapshot cadence in logged mutations (0 = the
	// wal default of 1024; negative disables cadence snapshots). Smaller
	// values bound recovery replay at the cost of more snapshot writes.
	SnapshotEvery int
	// WALSyncEvery is the group-fsync interval of the log: the WAL is
	// fsynced after every WALSyncEvery mutations (0 or 1 = every mutation
	// durable before its call returns). Larger values trade the
	// durability of the last few mutations for ingest throughput.
	WALSyncEvery int

	// walFS overrides the durability layer's filesystem — the seam the
	// fault-injected crash-recovery tests use. Nil means the real
	// filesystem; production code has no reason to set it.
	walFS wal.VFS
}

// RecoveryInfo describes what NewIndexWith found in Options.WALDir.
type RecoveryInfo struct {
	// Recovered reports whether the directory held evidence of a prior
	// run: restored state (a snapshot and/or intact log records), or a
	// torn record that recovery truncated. A clean fresh directory — and
	// one a previous run opened and closed without ever mutating — is the
	// only Recovered == false case.
	Recovered bool
	// FromSnapshot counts items loaded from the snapshot.
	FromSnapshot int
	// Replayed counts log-tail records re-applied after the snapshot.
	Replayed int
	// TornTail reports whether the log ended in a torn (incomplete or
	// checksum-failing) record that recovery truncated — the signature
	// of a crash mid-append.
	TornTail bool
}

// Index is a searchable trajectory database: it stores each trajectory's
// Euclidean-space embedding and Hamming-space code and answers top-k
// similar-trajectory queries in either space. It is a
// thin facade over the sharded internal query engine and is safe for
// concurrent use: any number of goroutines may add and search at once
// (training the encoder concurrently is not).
type Index struct {
	enc  Encoder
	opts Options
	eng  *engine.Engine

	mu     sync.RWMutex // guards trajs, the store, and closed
	trajs  []Trajectory // indexed by global id; nil at deleted ids
	store  *wal.Store   // nil when Options.WALDir is empty
	closed bool         // set by Close on a durable index; mutations fail with ErrClosed
	rec    RecoveryInfo
}

// NewIndex embeds and indexes the given trajectories with an encoder
// (e.g. a trained Model, or any other Encoder) and
// default Options. At least one trajectory is required; use AddCtx or
// AddBatchCtx for subsequent insertions.
func NewIndex(enc Encoder, ts []Trajectory) (*Index, error) {
	if len(ts) == 0 {
		return nil, fmt.Errorf("traj2hash: empty initial database")
	}
	return NewIndexWith(enc, ts, Options{})
}

// NewIndexWith embeds and indexes the given trajectories (which may be
// empty) with explicit Options. The initial batch is embedded in parallel
// across opts.Workers goroutines and indexed by AddBatchCtx — with a WAL,
// in groups of one log write and one fsync each, not one per trajectory.
//
// With Options.WALDir set, the directory's prior state is recovered
// first (snapshot + log-tail replay; see RecoveryInfo). The initial
// batch then only seeds an EMPTY index: when recovery restored any
// items, ts is ignored — otherwise every restart of a process that
// passes its dataset here would re-index it on top of the recovered
// copy. Use Recovery to observe which path was taken, and Close to
// release the durability layer when done.
func NewIndexWith(enc Encoder, ts []Trajectory, opts Options) (*Index, error) {
	if enc == nil {
		return nil, fmt.Errorf("traj2hash: nil encoder")
	}
	eng, err := engine.New(engine.Options{
		// One strategy per Space (the hybrid's table also serves
		// WithinCtx; the Euclidean scan reads the shard's embedding slab
		// and costs nothing per item).
		Backends: spaceStrategies[:],
		Shards:   opts.Shards,
		Workers:  opts.Workers,
		Metrics:  opts.Metrics,
		Config:   engine.Config{Bits: enc.Dim()},
	})
	if err != nil {
		return nil, err
	}
	ix := &Index{enc: enc, opts: opts, eng: eng}
	if opts.WALDir != "" {
		if err := ix.openWAL(); err != nil {
			return nil, err
		}
	}
	// The seed batch only applies when recovery restored no state at all.
	// The engine's id sequence is the authority here, not
	// RecoveryInfo.Recovered: a directory whose only record was torn (and
	// truncated) counts as recovered-from-a-crash yet holds nothing, so it
	// still seeds — while a restored snapshot whose every item was later
	// deleted restores an empty-but-advanced id space and must not.
	if ix.eng.NextID() > 0 {
		return ix, nil
	}
	// Construction has no caller context to honour.
	if ids, err := ix.AddBatchCtx(context.Background(), ts); err != nil {
		//lint:ignore errcheck the batch error takes precedence over the store cleanup close
		ix.Close()
		// With a WAL the acknowledged prefix is already durable: the next
		// NewIndexWith on this directory recovers it (and whatever of the
		// group in flight reached the log) and ignores ts.
		return nil, fmt.Errorf("traj2hash: seeding the index stopped after %d of %d trajectories: %w", len(ids), len(ts), err)
	}
	return ix, nil
}

// Recovery reports what NewIndexWith found in Options.WALDir (the zero
// RecoveryInfo for an in-memory index or a fresh directory).
func (ix *Index) Recovery() RecoveryInfo { return ix.rec }

// applyAdd indexes one embedded trajectory in memory and returns the WAL
// record describing it; callers hold ix.mu, which keeps the engine's
// sequential ids aligned with ix.trajs positions, and commit the record
// with logMutations before they acknowledge its id.
func (ix *Index) applyAdd(t Trajectory, emb []float64) (wal.Record, error) {
	if err := checkEmbedding(emb); err != nil {
		return wal.Record{}, err
	}
	code := hamming.FromSigns(emb)
	id, err := ix.eng.Add(emb, code)
	if err != nil {
		return wal.Record{}, err
	}
	ix.trajs = append(ix.trajs, t)
	return ix.record(wal.OpAdd, id, emb, code, t), nil
}

// Len returns the number of live (non-deleted) indexed trajectories.
func (ix *Index) Len() int { return ix.eng.Len() }

// Trajectory returns the indexed trajectory with the given id. The
// boolean is false — with a zero trajectory — when id is out of range or
// was deleted; it never panics and never returns stale post-delete data.
func (ix *Index) Trajectory(id int) (Trajectory, bool) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if !ix.eng.Live(id) {
		return nil, false
	}
	return ix.trajs[id], true
}

// Embedding returns a copy of the stored Euclidean-space embedding of id
// (the index keeps its own; the caller may modify what it gets). The
// boolean is false when id is out of range or was deleted.
func (ix *Index) Embedding(id int) ([]float64, bool) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.eng.Embedding(id, nil)
}

// Encoder returns the encoder the index embeds and hashes with.
func (ix *Index) Encoder() Encoder { return ix.enc }

// Do answers one top-k query. It is the single search path of the index:
// the query is embedded if it arrived as a trajectory, hashed if it
// arrived as (or was just turned into) an embedding, and ranked in
// q.Space by a fan-out across the shards under ctx. The fan-out stops as
// soon as ctx is done and whatever shards answered in time are merged
// into a (possibly partial) answer, tagged by the returned Status; a
// panicking shard degrades the answer instead of crashing the process.
//
// An invalid query — none or several of Traj/Vec/Code set, a bare Code
// in SpaceEuclidean, a Space that is neither, a Traj or Vec whose
// embedding is not finite (ErrNonFiniteEmbedding), a Vec or Code that is
// not of the encoder's dimension — is reported as Status{Err: …} with no
// results and no shard consulted.
func (ix *Index) Do(ctx context.Context, q Query) ([]Result, Status) {
	if q.Space != SpaceHamming && q.Space != SpaceEuclidean {
		return nil, Status{Err: fmt.Errorf("traj2hash: unknown Space %d", q.Space)}
	}
	hasTraj, hasVec, hasCode := len(q.Traj) > 0, len(q.Vec) > 0, q.Code.Bits > 0
	var eq engine.Query
	switch {
	case hasTraj && !hasVec && !hasCode:
		eq.Emb = ix.enc.Embed(q.Traj)
	case hasVec && !hasTraj && !hasCode:
		eq.Emb = q.Vec
	case hasCode && !hasTraj && !hasVec:
		if q.Space == SpaceEuclidean {
			return nil, Status{Err: errors.New("traj2hash: SpaceEuclidean ranks embeddings; a Query carrying only a Code cannot be answered in it (set Vec or Traj)")}
		}
		if q.Code.Bits != ix.enc.Dim() {
			return nil, Status{Err: fmt.Errorf("traj2hash: query code has %d bits, the index's encoder hashes to %d", q.Code.Bits, ix.enc.Dim())}
		}
		eq.Code = q.Code
	default:
		return nil, Status{Err: errors.New("traj2hash: a Query needs exactly one of Traj, Vec and Code")}
	}
	if !hasCode {
		if err := ix.checkQueryVec(eq.Emb); err != nil {
			return nil, Status{Err: err}
		}
		eq.Code = hamming.FromSigns(eq.Emb)
	}
	//lint:ignore errcheck NewIndexWith maintains every strategy of spaceStrategies; the config error is impossible
	rs, st, _ := ix.eng.SearchWithCtx(ctx, spaceStrategies[q.Space], eq, q.K)
	return rs, st
}

// SearchCtx is Do for a raw trajectory in SpaceHamming.
func (ix *Index) SearchCtx(ctx context.Context, q Trajectory, k int) ([]Result, Status) {
	return ix.Do(ctx, Query{Traj: q, K: k})
}

// SearchByVecCtx is Do for a precomputed query embedding in
// SpaceHamming.
func (ix *Index) SearchByVecCtx(ctx context.Context, qe []float64, k int) ([]Result, Status) {
	return ix.Do(ctx, Query{Vec: qe, K: k})
}

// SearchEuclideanByVec is Do for a precomputed query embedding in
// SpaceEuclidean — exact over the learned space — with no deadline and
// the Status dropped: the convenience for "which stored item is nearest
// to this vector" lookups.
func (ix *Index) SearchEuclideanByVec(qe []float64, k int) []Result {
	rs, _ := ix.Do(context.Background(), Query{Vec: qe, K: k, Space: SpaceEuclidean})
	return rs
}

// SearchBatchCtx answers many queries in SpaceHamming, embedding them in
// parallel (Encoder.EmbedAllParallel) and fanning every (query, shard)
// search out across the index's worker budget under ctx: each member is
// answered exactly as Do answers it alone, partial answers at the
// deadline included. Results and statuses are in query order, and a
// query whose embedding is not finite carries ErrNonFiniteEmbedding and
// no results while the rest of the batch is answered. (Query embedding
// happens before the deadline applies to shard work; embed separately
// and use Do for finer control.)
func (ix *Index) SearchBatchCtx(ctx context.Context, qs []Trajectory, k int) ([][]Result, []Status) {
	embs := ix.enc.EmbedAllParallel(qs, ix.opts.Workers)
	results, sts := make([][]Result, len(qs)), make([]Status, len(qs))
	// Only the queries with a usable embedding reach the engine; at[j]
	// is the position in qs of the j-th of them.
	queries, at := make([]engine.Query, 0, len(embs)), make([]int, 0, len(embs))
	for i, e := range embs {
		if sts[i].Err = ix.checkQueryVec(e); sts[i].Err == nil {
			queries = append(queries, engine.Query{Emb: e, Code: hamming.FromSigns(e)})
			at = append(at, i)
		}
	}
	//lint:ignore errcheck NewIndexWith maintains every strategy of spaceStrategies; the config error is impossible
	batches, ok, _ := ix.eng.SearchBatchWithCtx(ctx, spaceStrategies[SpaceHamming], queries, k)
	for j, i := range at {
		results[i], sts[i] = batches[j], ok[j]
	}
	return results, sts
}

// WithinCtx returns the ids of indexed trajectories whose hash codes lie
// within the given Hamming radius of the query's code — the bucket
// neighborhood used for gathering-pattern style grouping (see
// examples/clustering) — sorted ascending. The radius must be 0, 1 or 2:
// any other is an error, as is a query whose embedding is not finite
// (ErrNonFiniteEmbedding), reported in Status.Err with no ids, as Do
// reports an invalid Query. It honors cancellation and deadlines like
// Do; incomplete answers (missed shards) are tagged by the Status.
func (ix *Index) WithinCtx(ctx context.Context, q Trajectory, radius int) ([]int, Status) {
	emb := ix.enc.Embed(q)
	if err := checkEmbedding(emb); err != nil {
		return nil, Status{Err: err}
	}
	ids, st, err := ix.eng.WithinCtx(ctx, hamming.FromSigns(emb), radius)
	if err != nil {
		return nil, Status{Err: err}
	}
	return ids, st
}

// HybridFastPaths reports how many hybrid searches (across all shards)
// the radius-2 neighborhood of the query answered on its own.
func (ix *Index) HybridFastPaths() int64 { return ix.eng.FastPathCount() }

// Stats returns a point-in-time snapshot of the index's observability
// registry (Options.Metrics): search counters, degraded-result and
// panic-recovery counts, and the latency/candidate histograms. With no
// registry configured the snapshot is empty (zero-valued maps), so
// callers can always range over it without nil checks.
func (ix *Index) Stats() MetricsSnapshot {
	if ix.opts.Metrics == nil {
		return MetricsSnapshot{
			Counters:   map[string]int64{},
			Gauges:     map[string]float64{},
			Histograms: map[string]obs.HistogramSnapshot{},
		}
	}
	return ix.opts.Metrics.Snapshot()
}

// ApproxDistanceByVec returns the index's learned approximation of the
// trajectory distance between a query embedding (from Encoder.Embed —
// embed once, evaluate against many ids) and an indexed trajectory. An
// out-of-range or deleted id has no distance, nor has a qe that is not of
// the index's dimension: the result is NaN.
func (ix *Index) ApproxDistanceByVec(qe []float64, id int) float64 {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	emb, ok := ix.eng.Embedding(id, nil)
	if !ok || len(qe) != len(emb) {
		return math.NaN()
	}
	var sum float64
	for j := range qe {
		d := qe[j] - emb[j]
		sum += d * d
	}
	return math.Sqrt(sum)
}
