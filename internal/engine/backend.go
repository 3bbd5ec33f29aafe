// Package engine is the unified serving layer of the library: a pluggable
// Backend interface over the five top-k search strategies (Euclidean
// brute force, Hamming brute force, Hamming-Hybrid table lookup,
// multi-index hashing, and a vantage-point tree), a registry that makes
// them selectable by name, and a sharded, concurrency-safe Engine that
// partitions the database across shards and fans queries out in parallel.
//
// Every consumer of top-k search — the public Index facade, the strategy
// adapter of the efficiency experiments (internal/experiments), and the
// CLI search subcommand — goes through the same backends, so a benchmark
// of one is a benchmark of all.
package engine

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

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

// Backend is one pluggable top-k search strategy over an item collection.
// Items get local ids 0,1,2,… in insertion order; Update replaces an
// item's representation under its existing local id, so the id order
// (and with it the deterministic tie-break contract) survives mutation.
// Deletion is NOT a backend concern: the Engine overlays a tombstone
// bitmap on the local id space and filters on the search paths, then
// rebuilds backends wholesale at compaction (see engine Delete/Compact).
//
// Backends are NOT goroutine-safe by themselves: the Engine (or any other
// caller) must serialize Add/Update against Search. Concurrent Searches
// are safe.
type Backend interface {
	// Name returns the registry name of the strategy.
	Name() string
	// Add appends one item. The embedding and code must be consistent
	// with previously added items (same dimension / bit length).
	Add(emb []float64, code hamming.Code) error
	// Update replaces the item stored under local id in place, keeping
	// its id and insertion-order position. The new embedding and code
	// must be consistent with the collection (same dimension / bit
	// length); an out-of-range id is an error.
	Update(local int, emb []float64, code hamming.Code) error
	// Search returns the top-k local ids for the query, sorted ascending
	// by (Score, ID).
	Search(q Query, k int) []Result
	// Len returns the number of indexed items.
	Len() int
}

// Config carries backend construction parameters.
type Config struct {
	// Bits is the hash code length. 0 means infer from the first Add.
	Bits int
	// MIHChunks is the substring count of the mih backend. 0 picks a
	// default (4, widened if needed so every chunk fits in 64 bits).
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
	aliases  = map[string]string{
		"hamming-mih": MIHName,
		"vp-tree":     VPTreeName,
	}
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

// Resolve canonicalizes a backend name, following aliases.
func Resolve(name string) (string, error) {
	regMu.RLock()
	defer regMu.RUnlock()
	if a, ok := aliases[name]; ok {
		name = a
	}
	if _, ok := registry[name]; !ok {
		return "", fmt.Errorf("engine: unknown backend %q (have %v)", name, backendNamesLocked())
	}
	return name, nil
}

// NewBackend builds a fresh backend by registry name.
func NewBackend(name string, cfg Config) (Backend, error) {
	canonical, err := Resolve(name)
	if err != nil {
		return nil, err
	}
	//lint:ignore deferunlock the factory below must run outside the registry lock: a factory that registers (or resolves) would deadlock under defer
	regMu.RLock()
	f := registry[canonical]
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
	Register(EuclideanBFName, func(cfg Config) (Backend, error) {
		return &EuclideanBF{vecBackend{name: EuclideanBFName, embs: &slab{}}}, nil
	})
	Register(HammingBFName, func(cfg Config) (Backend, error) {
		return &HammingBF{tableBackend{name: HammingBFName, tab: &codeTable{bits: cfg.Bits}}}, nil
	})
	Register(HammingHybridName, func(cfg Config) (Backend, error) {
		return &HammingHybrid{tableBackend{name: HammingHybridName, tab: &codeTable{bits: cfg.Bits}}, new(atomic.Int64)}, nil
	})
	Register(MIHName, func(cfg Config) (Backend, error) {
		return &MIHBackend{bits: cfg.Bits, chunks: cfg.MIHChunks}, nil
	})
	Register(VPTreeName, func(cfg Config) (Backend, error) {
		return &VPTreeBackend{vecBackend: vecBackend{name: VPTreeName, embs: &slab{}}, seed: cfg.VPSeed}, nil
	})
}

// --- euclidean-bf ---

// vecBackend is the Backend plumbing euclidean-bf and vptree share: the
// slab their rows live in. A standalone backend owns one; inside an
// engine shard both adopt the shard's (see Engine.newItems), so a shard
// holds each embedding once.
type vecBackend struct {
	name    string
	embs    *slab
	adopted bool // embs is the shard's, which feeds it
}

// Name implements Backend.
func (b *vecBackend) Name() string { return b.name }

// Len implements Backend.
func (b *vecBackend) Len() int { return b.embs.len() }

// Add implements Backend. An adopted slab is fed by the shard; the
// embedding is validated all the same, so error attribution does not
// depend on backend order.
func (b *vecBackend) Add(emb []float64, _ hamming.Code) error {
	if b.adopted {
		return b.embs.fits(emb)
	}
	return b.embs.append(emb)
}

// Update implements Backend.
func (b *vecBackend) Update(local int, emb []float64, _ hamming.Code) error {
	if b.adopted {
		return b.embs.settable(local, emb)
	}
	return b.embs.set(local, emb)
}

// EuclideanBF scans all embeddings with squared Euclidean distance — the
// paper's Euclidean-BF strategy: exact over the learned space, highest
// accuracy, linear cost.
type EuclideanBF struct{ vecBackend }

// Search implements Backend.
func (b *EuclideanBF) Search(q Query, k int) []Result {
	if len(q.Emb) == 0 || b.embs.len() == 0 {
		return nil
	}
	var sel topk.Selector
	sel.Reserve(min(k, b.embs.len()))
	return itemsToResults(b.embs.nearest(q.Emb, k, &sel))
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

// codeTable is the lazily created hamming.Table (NewTable needs a first
// code) the two whole-code strategies search. A standalone backend owns
// one; inside an engine shard hamming-bf adopts hamming-hybrid's (see
// Engine.newItems), so the shard keeps one table, fed once per item.
type codeTable struct {
	bits int // configured code length, 0 = infer from the first add
	t    *hamming.Table
}

// tableBackend is the Backend plumbing hamming-bf and hamming-hybrid
// share; they differ only in Search.
type tableBackend struct {
	name    string
	tab     *codeTable
	adopted bool // tab is another backend's, which feeds it
}

// Name implements Backend.
func (b *tableBackend) Name() string { return b.name }

// Len implements Backend.
func (b *tableBackend) Len() int {
	if b.tab.t == nil {
		return 0
	}
	return b.tab.t.Len()
}

// Add implements Backend. An adopted table is fed by its owner; the code
// is validated all the same, so error attribution does not depend on
// backend order.
func (b *tableBackend) Add(_ []float64, code hamming.Code) (err error) {
	switch {
	case code.Bits == 0:
		return fmt.Errorf("engine: %s needs a non-empty code", b.name)
	case b.tab.bits > 0 && code.Bits != b.tab.bits:
		return fmt.Errorf("engine: code has %d bits, backend wants %d", code.Bits, b.tab.bits)
	case b.adopted:
	case b.tab.t == nil:
		b.tab.t, err = hamming.NewTable([]hamming.Code{code})
	default:
		_, err = b.tab.t.Add(code)
	}
	return err
}

// Update implements Backend (nil table = nothing was ever added, so any
// id is unknown).
func (b *tableBackend) Update(local int, _ []float64, code hamming.Code) error {
	switch {
	case code.Bits == 0:
		return fmt.Errorf("engine: %s needs a non-empty code", b.name)
	case b.tab.t == nil:
		return fmt.Errorf("engine: %s update of unknown id %d (empty backend)", b.name, local)
	case b.adopted:
		return nil
	}
	return b.tab.t.Update(local, code)
}

// HammingBF scans all binary codes with popcount Hamming distance — the
// paper's Hamming-BF strategy: one XOR + popcount per stored word.
type HammingBF struct{ tableBackend }

// Search implements Backend.
func (b *HammingBF) Search(q Query, k int) []Result {
	if b.tab.t == nil || q.Code.Bits == 0 {
		return nil
	}
	return neighborsToResults(b.tab.t.BruteForce(q.Code, k))
}

// HammingHybrid is the paper's Section V-E hybrid strategy, answered by
// one threshold scan over the table's distinct codes (hamming.Table's
// bucket directory) instead of one over every item. Its results equal
// Hamming-BF exactly (both are the true Hamming top-k with ascending-id
// tie-breaks); only the cost differs.
type HammingHybrid struct {
	tableBackend
	// fastPaths counts the searches the radius-2 neighborhood alone
	// answered — the paper's table-lookup case: the backend's own count
	// when standalone, the shard's inside an engine — which outlives the
	// backends a compaction replaces.
	fastPaths *atomic.Int64
}

// Search implements Backend.
func (b *HammingHybrid) Search(q Query, k int) []Result {
	if b.tab.t == nil || q.Code.Bits == 0 {
		return nil
	}
	ns, fast := b.tab.t.Hybrid(q.Code, k)
	if fast {
		b.fastPaths.Add(1)
	}
	return neighborsToResults(ns)
}

// FastPathCount returns how many searches the radius-2 neighborhood
// answered (it held at least k items). Safe to read concurrently.
func (b *HammingHybrid) FastPathCount() int64 { return b.fastPaths.Load() }

// Within returns the local ids within the given Hamming radius of the
// code, sorted ascending — the bucket-neighborhood primitive behind
// Index.WithinCtx, which has already rejected a radius outside
// 0–hamming.MaxRadius.
func (b *HammingHybrid) Within(code hamming.Code, radius int) []int {
	if b.tab.t == nil {
		return nil
	}
	ids := b.tab.t.LookupRadius(code, radius) // a fresh slice: sorted in place
	sort.Ints(ids)
	return ids
}

// --- mih ---

// MIHBackend searches with multi-index hashing (Norouzi et al.): the code
// is split into chunks, each indexed separately, and candidates are
// generated by the pigeonhole principle — sublinear on long codes where
// whole-code radius expansion scans mostly empty buckets.
type MIHBackend struct {
	bits   int
	chunks int
	idx    *hamming.MIH
}

// Name implements Backend.
func (b *MIHBackend) Name() string { return MIHName }

// Len implements Backend.
func (b *MIHBackend) Len() int {
	if b.idx == nil {
		return 0
	}
	return b.idx.Len()
}

// Add implements Backend.
func (b *MIHBackend) Add(_ []float64, code hamming.Code) error {
	if code.Bits == 0 {
		return fmt.Errorf("engine: %s needs a non-empty code", MIHName)
	}
	if b.bits > 0 && code.Bits != b.bits {
		return fmt.Errorf("engine: code has %d bits, backend wants %d", code.Bits, b.bits)
	}
	if b.idx == nil {
		chunks := b.chunks
		if chunks <= 0 {
			chunks = defaultMIHChunks(code.Bits)
		}
		idx, err := hamming.NewMIH([]hamming.Code{code}, chunks)
		if err != nil {
			return err
		}
		b.idx = idx
		return nil
	}
	_, err := b.idx.Add(code)
	return err
}

// Update implements Backend.
func (b *MIHBackend) Update(local int, _ []float64, code hamming.Code) error {
	if code.Bits == 0 {
		return fmt.Errorf("engine: %s needs a non-empty code", MIHName)
	}
	if b.idx == nil {
		return fmt.Errorf("engine: %s update of unknown id %d (empty backend)", MIHName, local)
	}
	return b.idx.Update(local, code)
}

// defaultMIHChunks picks 4 substrings, widened when the code is too long
// for 64-bit chunk words and narrowed for very short codes.
func defaultMIHChunks(bits int) int {
	chunks := 4
	if chunks > bits {
		chunks = bits
	}
	for (bits+chunks-1)/chunks > 64 {
		chunks++
	}
	return chunks
}

// Search implements Backend.
func (b *MIHBackend) Search(q Query, k int) []Result {
	if b.idx == nil || q.Code.Bits == 0 {
		return nil
	}
	return neighborsToResults(b.idx.Search(q.Code, k))
}

// --- vptree ---

// VPTreeBackend answers exact Euclidean k-NN with a vantage-point tree
// over the embeddings — triangle-inequality pruning instead of a linear
// scan. The tree is rebuilt lazily on the first Search after an Add
// (vantage-point trees do not insert incrementally), so bulk-load-then-
// search workloads pay one build.
type VPTreeBackend struct {
	vecBackend
	seed int64

	// mu guards the lazy rebuild: concurrent Searches may race to build
	// the tree; Add (serialized against Search by the Engine) invalidates
	// it. The tree itself is immutable once built.
	mu   sync.Mutex
	tree *VPTree
}

// Add implements Backend.
func (b *VPTreeBackend) Add(emb []float64, code hamming.Code) error {
	if err := b.vecBackend.Add(emb, code); err != nil {
		return err
	}
	b.invalidate()
	return nil
}

// Update implements Backend. The tree is invalidated and rebuilt lazily
// on the next Search, like Add.
func (b *VPTreeBackend) Update(local int, emb []float64, code hamming.Code) error {
	if err := b.vecBackend.Update(local, emb, code); err != nil {
		return err
	}
	b.invalidate()
	return nil
}

func (b *VPTreeBackend) invalidate() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.tree = nil
}

func (b *VPTreeBackend) ensure() *VPTree {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.tree == nil {
		b.tree = newVPTree(b.embs, b.seed)
	}
	return b.tree
}

// Search implements Backend. Scores are squared Euclidean distances,
// matching the euclidean-bf backend.
func (b *VPTreeBackend) Search(q Query, k int) []Result {
	if b.embs.len() == 0 || len(q.Emb) == 0 || k <= 0 {
		return nil
	}
	ids, _ := b.ensure().Search(q.Emb, k)
	out := make([]Result, len(ids))
	for i, id := range ids {
		out[i] = Result{ID: id, Score: sqDist(q.Emb, b.embs.at(id))}
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
