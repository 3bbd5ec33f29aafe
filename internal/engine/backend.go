// Package engine is the unified serving layer of the library: a Store
// that holds the items — one column of embeddings, one of hash codes —
// and is the only thing that is fed; a pluggable Backend interface for
// the five top-k strategies that search a store (Euclidean brute force,
// Hamming brute force, Hamming-Hybrid table lookup, multi-index hashing,
// and a vantage-point tree), with an optional Indexer hook for the three
// that build something over it; a registry that makes them selectable by
// name; and a sharded, concurrency-safe Engine that keeps one Store per
// shard and fans queries out in parallel.
//
// Every consumer of top-k search — the public Index facade, the strategy
// adapter of the efficiency experiments (internal/experiments), and the
// CLI search subcommand — goes through the same store and strategies, so
// a benchmark of one is a benchmark of all.
package engine

import (
	"fmt"
	"sort"
	"sync"

	"traj2hash/internal/hamming"
	"traj2hash/internal/topk"
)

// Query carries both learned representations of an encoded query: the
// Euclidean-space embedding and the Hamming-space code. Backends read the
// representation they index; the other may be left zero.
type Query struct {
	Emb  []float64
	Code hamming.Code
}

// Result is one search hit: the item id and its score under the backend
// that produced it (squared Euclidean distance for euclidean-bf and
// vptree, Hamming distance for the Hamming backends — smaller is more
// similar in all cases). Backends return results sorted ascending by
// (Score, ID), which makes every backend deterministic under ties and is
// what lets the sharded Engine merge shard results exactly.
type Result struct {
	ID    int
	Score float64
}

// Backend is one pluggable top-k search strategy over a Store. It holds
// no items: the store is fed (Store.Add, Store.Update) and every strategy
// reads the same columns, addressed by local ids 0,1,2,… in insertion
// order; an update replaces an item under its existing local id, so the id
// order (and with it the deterministic tie-break contract) survives
// mutation. A strategy that builds something over the columns — a bucket
// directory, substring tables, a metric tree — also implements Indexer.
// Deletion is NOT a strategy concern: the Engine overlays a tombstone
// bitmap on the local id space and filters on the search paths, then
// rebuilds store and strategies wholesale at compaction (see engine
// Delete/Compact).
//
// A strategy serves the one store it was built with (NewStore) and is NOT
// goroutine-safe by itself: the Engine (or any other caller) must
// serialize the store's Add/Update against Search. Concurrent Searches
// are safe.
type Backend interface {
	// Name returns the registry name of the strategy.
	Name() string
	// Search returns the top-k local ids of st for the query, sorted
	// ascending by (Score, ID) — nothing when the store lacks the column
	// the strategy reads or the query the representation.
	Search(st *Store, q Query, k int) []Result
}

// Indexer is the optional hook of a strategy that keeps an index over the
// store's columns: Index tells it that item local of st was appended
// (local is the store's last id) or replaced, after the store validated
// and wrote it — so the hook has nothing left to refuse.
type Indexer interface {
	Index(st *Store, local int)
}

// Config carries backend construction parameters.
type Config struct {
	// Bits is the hash code length. 0 means infer from the first code.
	Bits int
	// MIHChunks is the substring count of the mih backend, 0 meaning 4.
	// Either is narrowed to one chunk per bit and widened until every
	// chunk fits in 64 bits.
	MIHChunks int
	// VPSeed seeds vantage-point sampling of the vptree backend.
	VPSeed int64
	// Hooks is an opaque configuration slot for test-instrumentation
	// backends: internal/faultinject's "faulty" backend reads its fault
	// schedule (*faultinject.Faults) from here. Production backends
	// ignore it, and it must never carry request-scoped state — in
	// particular not a context.Context.
	Hooks any
}

// Factory builds a fresh, empty backend.
type Factory func(cfg Config) (Backend, error)

// Canonical backend names.
const (
	EuclideanBFName   = "euclidean-bf"
	HammingBFName     = "hamming-bf"
	HammingHybridName = "hamming-hybrid"
	MIHName           = "mih"
	VPTreeName        = "vptree"
)

var (
	regMu    sync.RWMutex
	registry = map[string]Factory{}
)

// Register makes a backend constructible by name. It panics on duplicate
// registration, mirroring database/sql.Register.
func Register(name string, f Factory) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("engine: duplicate backend %q", name))
	}
	registry[name] = f
}

// Resolve checks that a backend name is registered and returns it.
func Resolve(name string) (string, error) {
	regMu.RLock()
	defer regMu.RUnlock()
	if _, ok := registry[name]; !ok {
		return "", fmt.Errorf("engine: unknown backend %q (have %v)", name, backendNamesLocked())
	}
	return name, nil
}

// NewBackend builds a fresh strategy by registry name, to be handed to
// NewStore.
func NewBackend(name string, cfg Config) (Backend, error) {
	if _, err := Resolve(name); err != nil {
		return nil, err
	}
	//lint:ignore deferunlock the factory below must run outside the registry lock: a factory that registers (or resolves) would deadlock under defer
	regMu.RLock()
	f := registry[name]
	regMu.RUnlock()
	return f(cfg)
}

// BackendNames returns the registered backend names, sorted.
func BackendNames() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	return backendNamesLocked()
}

func backendNamesLocked() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func init() {
	Register(EuclideanBFName, func(Config) (Backend, error) { return euclideanBF{}, nil })
	Register(HammingBFName, func(Config) (Backend, error) { return hammingBF{}, nil })
	Register(HammingHybridName, func(Config) (Backend, error) { return &hybrid{}, nil })
	Register(MIHName, func(cfg Config) (Backend, error) { return &mih{chunks: cfg.MIHChunks}, nil })
	Register(VPTreeName, func(cfg Config) (Backend, error) { return &vpTree{seed: cfg.VPSeed}, nil })
}

// --- euclidean-bf ---

// euclideanBF scans all embeddings with squared Euclidean distance — the
// paper's Euclidean-BF strategy: exact over the learned space, highest
// accuracy, linear cost. It is the store's embedding slab scan.
type euclideanBF struct{}

// Name implements Backend.
func (euclideanBF) Name() string { return EuclideanBFName }

// Search implements Backend.
func (euclideanBF) Search(st *Store, q Query, k int) []Result {
	if len(q.Emb) == 0 || st.embs.len() == 0 {
		return nil
	}
	var sel topk.Selector
	sel.Reserve(min(k, st.embs.len()))
	return itemsToResults(st.embs.nearest(q.Emb, k, &sel))
}

func sqDist(a, b []float64) float64 {
	var sum float64
	for j := range a {
		d := a[j] - b[j]
		sum += d * d
	}
	return sum
}

// --- hamming-bf, hamming-hybrid ---

// hammingBF scans all binary codes with popcount Hamming distance — the
// paper's Hamming-BF strategy: one XOR + popcount per stored word. It is
// the store's canonical code slab scan.
type hammingBF struct{}

// Name implements Backend.
func (hammingBF) Name() string { return HammingBFName }

// Search implements Backend.
func (hammingBF) Search(st *Store, q Query, k int) []Result {
	n := min(k, st.codes.Len())
	if q.Code.Bits == 0 || n <= 0 {
		return nil
	}
	var sel topk.Selector
	sel.Reserve(n)
	return neighborsToResults(st.codes.Nearest(q.Code, k, &sel, make([]hamming.Neighbor, 0, n)))
}

// hybrid is the paper's Section V-E Hamming-Hybrid strategy, answered by
// one threshold scan over the distinct codes of its hamming.Table (the
// bucket directory) instead of one over every item. Its results equal
// Hamming-BF exactly (both are the true Hamming top-k with ascending-id
// tie-breaks); only the cost differs. The searches the radius-2
// neighborhood alone answered — the paper's table-lookup case — are
// counted on the store (Store.FastPathCount).
type hybrid struct {
	tab *hamming.Table // nil until the store holds a code
}

// Name implements Backend.
func (b *hybrid) Name() string { return HammingHybridName }

// Index implements Indexer: the item's code enters, or moves within, the
// bucket directory.
func (b *hybrid) Index(st *Store, local int) {
	if local >= st.codes.Len() {
		return // a store without a code column: nothing to index
	}
	code := st.codes.At(local)
	var err error
	switch {
	case b.tab == nil:
		b.tab, err = hamming.NewTable([]hamming.Code{code})
	case local == b.tab.Len():
		_, err = b.tab.Add(code)
	default:
		err = b.tab.Update(local, code)
	}
	indexed(err)
}

// Search implements Backend.
func (b *hybrid) Search(st *Store, q Query, k int) []Result {
	if b.tab == nil || q.Code.Bits == 0 {
		return nil
	}
	ns, fast := b.tab.Hybrid(q.Code, k)
	if fast {
		st.fastPaths.Add(1)
	}
	return neighborsToResults(ns)
}

// Within returns the local ids within the given Hamming radius of the
// code, sorted ascending — the bucket-neighborhood primitive behind
// Engine.WithinCtx, which has already rejected a radius outside
// 0–hamming.MaxRadius.
func (b *hybrid) Within(code hamming.Code, radius int) []int {
	if b.tab == nil {
		return nil
	}
	ids := b.tab.LookupRadius(code, radius) // a fresh slice: sorted in place
	sort.Ints(ids)
	return ids
}

// indexed panics on an index error: the store validated the item before
// the hook ran, so only a bug gets here.
func indexed(err error) {
	if err != nil {
		panic(fmt.Sprintf("engine: index refused an item the store accepted: %v", err))
	}
}

// --- mih ---

// mih searches with multi-index hashing (Norouzi et al.): the code is
// split into chunks, each indexed separately, and candidates are
// generated by the pigeonhole principle — sublinear on long codes where
// whole-code radius expansion scans mostly empty buckets.
type mih struct {
	chunks int          // Config.MIHChunks
	idx    *hamming.MIH // nil until the store holds a code
}

// Name implements Backend.
func (b *mih) Name() string { return MIHName }

// Index implements Indexer: the item's code enters, or moves within, the
// substring tables.
func (b *mih) Index(st *Store, local int) {
	if local >= st.codes.Len() {
		return // a store without a code column: nothing to index
	}
	code := st.codes.At(local)
	var err error
	switch {
	case b.idx == nil:
		b.idx, err = hamming.NewMIH([]hamming.Code{code}, mihChunks(b.chunks, code.Bits))
	case local == b.idx.Len():
		_, err = b.idx.Add(code)
	default:
		err = b.idx.Update(local, code)
	}
	indexed(err)
}

// mihChunks turns the configured substring count (0 = 4) into one the
// bit length allows: at most one chunk per bit, and widened until every
// chunk fits a 64-bit word. The count only trades lookup cost — MIH is
// exact at any — so an impossible request is adjusted, not refused.
func mihChunks(chunks, bits int) int {
	if chunks <= 0 {
		chunks = 4
	}
	if chunks > bits {
		chunks = bits
	}
	for (bits+chunks-1)/chunks > 64 {
		chunks++
	}
	return chunks
}

// Search implements Backend.
func (b *mih) Search(_ *Store, q Query, k int) []Result {
	if b.idx == nil || q.Code.Bits == 0 {
		return nil
	}
	return neighborsToResults(b.idx.Search(q.Code, k))
}

// --- vptree ---

// vpTree answers exact Euclidean k-NN with a vantage-point tree over the
// store's embeddings — triangle-inequality pruning instead of a linear
// scan. The tree is rebuilt lazily on the first Search after an append or
// a replacement (vantage-point trees do not insert incrementally), so
// bulk-load-then-search workloads pay one build.
type vpTree struct {
	seed int64

	// mu guards the lazy rebuild: concurrent Searches may race to build
	// the tree; Index (serialized against Search by the Engine)
	// invalidates it. The tree itself is immutable once built.
	mu   sync.Mutex
	tree *VPTree
}

// Name implements Backend.
func (b *vpTree) Name() string { return VPTreeName }

// Index implements Indexer: any change invalidates the tree.
func (b *vpTree) Index(*Store, int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.tree = nil
}

func (b *vpTree) ensure(embs *slab) *VPTree {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.tree == nil {
		b.tree = newVPTree(embs, b.seed)
	}
	return b.tree
}

// Search implements Backend. Scores are squared Euclidean distances,
// matching the euclidean-bf backend.
func (b *vpTree) Search(st *Store, q Query, k int) []Result {
	if st.embs.len() == 0 || len(q.Emb) == 0 || k <= 0 {
		return nil
	}
	ids, _ := b.ensure(&st.embs).Search(q.Emb, k)
	out := make([]Result, len(ids))
	for i, id := range ids {
		out[i] = Result{ID: id, Score: sqDist(q.Emb, st.embs.at(id))}
	}
	return out
}

// --- shared conversions ---

func itemsToResults(items []topk.Item) []Result {
	out := make([]Result, len(items))
	for i, it := range items {
		out[i] = Result{ID: it.ID, Score: it.Dist}
	}
	return out
}

func neighborsToResults(ns []hamming.Neighbor) []Result {
	out := make([]Result, len(ns))
	for i, n := range ns {
		out[i] = Result{ID: n.ID, Score: float64(n.Distance)}
	}
	return out
}
