package engine

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"traj2hash/internal/hamming"
	"traj2hash/internal/obs"
)

// Options configures an Engine.
type Options struct {
	// Backends are the registry names of the backends every shard
	// maintains. Backends[0] is the default used by Search/SearchCtx.
	// Empty means {hamming-hybrid}.
	Backends []string
	// Shards is the number of database partitions (default 1). Items are
	// assigned round-robin, so shard loads stay balanced under any
	// insertion pattern and per-shard id order follows global id order.
	Shards int
	// Workers bounds the engine's parallelism: the (query, shard) search
	// fan-out (default GOMAXPROCS).
	Workers int
	// CompactAt is the tombstone-density threshold that triggers a shard
	// compaction at the end of the Delete that crosses it: when
	// deleted/total for a shard reaches the threshold, the shard's
	// backends are rebuilt over the live items only (MIH buckets and
	// VP-trees do not shrink incrementally). 0 means the default of 0.25;
	// a negative value disables automatic compaction (Compact can still
	// be called explicitly). Compaction never changes answers — only the
	// cost of computing them.
	CompactAt float64
	// Metrics, when non-nil, receives the engine's runtime metrics and
	// spans (per-backend/per-shard search latency, merge latency,
	// candidate counts, shard panic recoveries, degraded answers — see
	// DESIGN.md "Observability" for the name table). Nil disables
	// instrumentation entirely: the engine takes the no-op path with no
	// timestamps and no atomic updates, the baseline of the overhead
	// benchmarks.
	Metrics *obs.Registry
	// Config carries backend construction parameters.
	Config Config
}

// DefaultCompactAt is the tombstone-density threshold used when
// Options.CompactAt is zero.
const DefaultCompactAt = 0.25

func (o Options) withDefaults() Options {
	if len(o.Backends) == 0 {
		o.Backends = []string{HammingHybridName}
	}
	if o.Shards <= 0 {
		o.Shards = 1
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	//lint:ignore floatcompare 0 is the field's exact "not set" sentinel, never a computed value
	if o.CompactAt == 0 {
		o.CompactAt = DefaultCompactAt
	}
	return o
}

// shard is one partition of the database: the global ids of its items
// (ascending, thanks to round-robin assignment under the add lock), the
// Store that holds their representations and the strategies searching
// them (parallel to ids — the source of truth compaction rebuilds from),
// and the tombstone overlay (dead bitmap + count) that Delete maintains
// and the search paths filter through.
//
// Liveness invariant: the live entries of ids are strictly ascending —
// Add appends increasing ids, Delete only flips dead bits, Update
// replaces in place, and compaction preserves order — which is what keeps
// per-strategy local-id tie-breaks equal to global-id tie-breaks after any
// mutation history.
type shard struct {
	mu sync.RWMutex
	items
	deadN int
}

// items is what compaction rebuilds and swaps in as a whole: a store and
// the global id and tombstone flag of each of its local ids.
type items struct {
	ids   []int
	dead  []bool
	store *Store
}

// put appends one item to the store — which validates it, copies emb and
// code in and tells the strategies — and returns its local index. Callers
// hold the shard's write lock.
func (it *items) put(id int, emb []float64, code hamming.Code) (int32, error) {
	if len(it.ids) == math.MaxInt32 {
		return 0, fmt.Errorf("engine: shard is full (%d items)", len(it.ids))
	}
	if err := it.store.Add(emb, code); err != nil {
		return 0, err
	}
	it.ids = append(it.ids, id)
	it.dead = append(it.dead, false)
	return int32(len(it.ids) - 1), nil
}

// Engine is a sharded, concurrency-safe top-k query engine. Every shard
// keeps its partition of the items in one Store searched by the same set
// of pluggable strategies; a query fans out across shards in parallel and
// the per-shard top-k lists are merged by (score, id) into the exact
// global top-k.
//
// Add and Search may be called concurrently from any number of
// goroutines: a per-shard RWMutex serializes writes against reads, and a
// global add lock keeps id assignment strictly sequential.
type Engine struct {
	opts   Options
	names  []string // canonical backend names, parallel to Store.strategies
	within int      // slot of the strategy that answers WithinCtx, -1 without one
	met    *metrics // nil when Options.Metrics is nil (uninstrumented)

	addMu sync.Mutex
	next  int   // next global id, guarded by addMu
	live  int   // live (non-deleted) item count, guarded by addMu
	dim   int   // embedding dimension, fixed by the first Add (0 = none yet)
	locs  []loc // global id → (shard, local); local < 0 marks a deleted id

	shards []*shard
}

// loc places one global id inside the sharded store, in 8 bytes (there
// is one per id ever assigned). A negative local index is the
// engine-level tombstone: the id existed and was deleted (its per-shard
// slot may already have been reclaimed by compaction).
type loc struct {
	shard int32
	local int32
}

// metrics caches the engine's instruments, resolved once at construction
// so the hot path never takes the registry lock. All instrument methods
// are nil-safe, but a nil *metrics short-circuits even the time.Now calls
// — that is the documented "no-op registry" baseline.
type metrics struct {
	searches    *obs.Counter       // engine.search.total
	degraded    *obs.Counter       // search.degraded
	panics      *obs.Counter       // engine.shard.panics
	deletes     *obs.Counter       // engine.deletes
	updates     *obs.Counter       // engine.updates
	compactions *obs.Counter       // engine.compactions
	candidates  *obs.Histogram     // engine.search.candidates
	mergeLat    *obs.Histogram     // engine.merge.seconds
	shardLat    [][]*obs.Histogram // [backend][shard] engine.shard.seconds.<backend>.<shard>
	spanNames   []string           // per-backend span names, precomputed
	tracer      *obs.Tracer
}

// newMetrics resolves the engine's instruments against reg. The
// per-backend/per-shard latency histograms share obs.LatencyBounds, so
// they merge exactly into a global latency distribution.
func newMetrics(reg *obs.Registry, names []string, shards int) *metrics {
	m := &metrics{
		searches:    reg.Counter("engine.search.total"),
		degraded:    reg.Counter("search.degraded"),
		panics:      reg.Counter("engine.shard.panics"),
		deletes:     reg.Counter("engine.deletes"),
		updates:     reg.Counter("engine.updates"),
		compactions: reg.Counter("engine.compactions"),
		candidates:  reg.Histogram("engine.search.candidates", obs.CountBounds()),
		mergeLat:    reg.Histogram("engine.merge.seconds", obs.LatencyBounds()),
		tracer:      reg.Tracer(),
	}
	m.shardLat = make([][]*obs.Histogram, len(names))
	m.spanNames = make([]string, len(names))
	for bi, n := range names {
		m.spanNames[bi] = "engine.search." + n
		m.shardLat[bi] = make([]*obs.Histogram, shards)
		for si := 0; si < shards; si++ {
			m.shardLat[bi][si] = reg.Histogram(
				fmt.Sprintf("engine.shard.seconds.%s.%d", n, si), obs.LatencyBounds())
		}
	}
	return m
}

// New builds an empty engine. Backend names are checked against the
// registry and deduplicated, preserving order (the first stays the
// default).
func New(opts Options) (*Engine, error) {
	opts = opts.withDefaults()
	if opts.Shards > math.MaxInt32 {
		return nil, fmt.Errorf("engine: %d shards, at most %d", opts.Shards, math.MaxInt32)
	}
	var names []string
	seen := map[string]bool{}
	for _, n := range opts.Backends {
		if _, err := Resolve(n); err != nil {
			return nil, err
		}
		if !seen[n] {
			seen[n] = true
			names = append(names, n)
		}
	}
	e := &Engine{opts: opts, names: names}
	if opts.Metrics != nil {
		e.met = newMetrics(opts.Metrics, names, opts.Shards)
	}
	for s := 0; s < opts.Shards; s++ {
		it, err := e.newItems()
		if err != nil {
			return nil, err
		}
		e.shards = append(e.shards, &shard{items: it})
	}
	// Which strategy answers WithinCtx follows from the names alone, so it
	// is settled here, once, and never read off a shard a compaction may
	// be replacing.
	e.within = -1
	for i, b := range e.shards[0].store.strategies {
		if _, ok := b.(radiusSearcher); ok {
			e.within = i
			break
		}
	}
	return e, nil
}

// newItems builds an empty item set — at construction and at every
// compaction — whose store is searched by a fresh strategy per configured
// name.
func (e *Engine) newItems() (items, error) {
	strategies := make([]Backend, len(e.names))
	for i, n := range e.names {
		b, err := NewBackend(n, e.opts.Config)
		if err != nil {
			return items{}, err
		}
		strategies[i] = b
	}
	return items{store: NewStore(e.opts.Config, strategies...)}, nil
}

// Len returns the number of live (non-deleted) indexed items.
func (e *Engine) Len() int {
	e.addMu.Lock()
	defer e.addMu.Unlock()
	return e.live
}

// NextID returns the next global id Add would assign — equivalently, the
// number of ids ever assigned, deleted ones included. It only equals Len
// while nothing has been deleted.
func (e *Engine) NextID() int {
	e.addMu.Lock()
	defer e.addMu.Unlock()
	return e.next
}

// Live reports whether id names an indexed, non-deleted item.
func (e *Engine) Live(id int) bool {
	e.addMu.Lock()
	defer e.addMu.Unlock()
	return id >= 0 && id < e.next && e.locs[id].local >= 0
}

// Embedding returns the stored embedding of id appended to dst[:0] — a
// copy, never a view of the store, so callers may keep or modify it. The
// boolean is false, with no embedding, when id was never assigned or was
// deleted.
func (e *Engine) Embedding(id int, dst []float64) ([]float64, bool) {
	e.addMu.Lock()
	defer e.addMu.Unlock()
	if id < 0 || id >= e.next || e.locs[id].local < 0 {
		return nil, false
	}
	l := e.locs[id]
	sh := e.shards[l.shard]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return append(dst[:0], sh.store.embs.at(int(l.local))...), true
}

// Add indexes one item in its shard's store and returns its global id.
// The embedding and the code are copied in: the engine keeps no reference
// to either argument. Ids are assigned sequentially from 0 in call order
// (deleted ids are never reused). If the code is zero, it is derived from
// the embedding's signs (the model's Code = sign(Embed) convention); an
// explicitly provided code must have one bit per embedding dimension —
// the same convention — so the two representations always describe the
// same item.
func (e *Engine) Add(emb []float64, code hamming.Code) (int, error) {
	code, err := signCode(emb, code)
	if err != nil {
		return 0, err
	}
	e.addMu.Lock()
	defer e.addMu.Unlock()
	// Dimension is an engine-wide invariant, enforced here rather than
	// per store: with several shards, a drifting add would otherwise land
	// on a still-empty shard whose store has nothing to compare against.
	// It is pinned only after a fully successful add.
	if e.dim != 0 && len(emb) != e.dim {
		return 0, fmt.Errorf("engine: embedding dim %d, want %d", len(emb), e.dim)
	}
	id := e.next
	si := id % len(e.shards)
	sh := e.shards[si]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	local, err := sh.put(id, emb, code)
	if err != nil {
		return 0, err
	}
	e.dim = len(emb)
	e.locs = append(e.locs, loc{shard: int32(si), local: local})
	e.next++
	e.live++
	return id, nil
}

// AddBatch indexes a batch, returning the assigned ids. codes may be nil
// (derived from embedding signs). When an item is rejected the ids already
// assigned are returned alongside the error — the applied prefix.
func (e *Engine) AddBatch(embs [][]float64, codes []hamming.Code) ([]int, error) {
	if codes != nil && len(codes) != len(embs) {
		return nil, fmt.Errorf("engine: %d embeddings but %d codes", len(embs), len(codes))
	}
	ids := make([]int, len(embs))
	for i, emb := range embs {
		var c hamming.Code
		if codes != nil {
			c = codes[i]
		}
		id, err := e.Add(emb, c)
		if err != nil {
			return ids[:i], err
		}
		ids[i] = id
	}
	return ids, nil
}

// backendIndex resolves a backend name to its slot in every shard.
func (e *Engine) backendIndex(name string) (int, error) {
	if _, err := Resolve(name); err != nil {
		return 0, err
	}
	for i, n := range e.names {
		if n == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("engine: backend %q not maintained by this engine (have %v)", name, e.names)
}

// Search answers a top-k query with the default backend. It is a thin
// wrapper over SearchCtx with a background context: no deadline, and a
// panicking shard silently degrades the answer (use SearchCtx to observe
// the Status).
func (e *Engine) Search(q Query, k int) []Result {
	rs, _ := e.SearchCtx(context.Background(), q, k)
	return rs
}

// radiusSearcher is the optional interface of backends that support
// bucket-neighborhood lookups (hamming-hybrid).
type radiusSearcher interface {
	Within(code hamming.Code, radius int) []int
}

// FastPathCount sums the shard stores' hybrid fast-path counts (0 without
// a hamming-hybrid backend). A compaction carries a shard's count over to
// the store it builds, so the total is monotone.
func (e *Engine) FastPathCount() int64 {
	var total int64
	for _, sh := range e.shards {
		total += sh.fastPathCount()
	}
	return total
}

func (sh *shard) fastPathCount() int64 {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.store.FastPathCount()
}

// merge is mergeTopK with observability around it: the candidate count
// (total per-shard results entering the merge) and the merge latency are
// recorded separately from the per-shard search work — shard latency is
// measured inside the fan-out worker (searchShard), so a slow shard and
// a slow merge are independently attributable.
func (e *Engine) merge(units []outcome[[]Result], qi, nq, k int) []Result {
	if e.met == nil {
		return mergeTopK(units, qi, nq, k)
	}
	var n int
	for u := qi; u < len(units); u += nq {
		n += len(units[u].v)
	}
	e.met.candidates.Observe(float64(n))
	start := time.Now()
	out := mergeTopK(units, qi, nq, k)
	e.met.mergeLat.Observe(time.Since(start).Seconds())
	return out
}

// mergeTopK merges the per-shard top-k lists of query qi — every nq-th
// unit from qi, each sorted by (score, id); a shard that did not answer
// has none — into the exact global top-k. Each global winner is necessarily
// within its own shard's top-k, so merging the lists loses nothing.
func mergeTopK(units []outcome[[]Result], qi, nq, k int) []Result {
	var n int
	for u := qi; u < len(units); u += nq {
		n += len(units[u].v)
	}
	all := make([]Result, 0, n)
	for u := qi; u < len(units); u += nq {
		all = append(all, units[u].v...)
	}
	sort.Slice(all, func(a, b int) bool {
		//lint:ignore floatcompare sort tie-break over stored scores: both operands are the same stored float64s every evaluation, so exact inequality is the determinism contract, not a hazard
		if all[a].Score != all[b].Score {
			return all[a].Score < all[b].Score
		}
		return all[a].ID < all[b].ID
	})
	if len(all) > k {
		all = all[:k]
	}
	return all
}
