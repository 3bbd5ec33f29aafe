package engine

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"traj2hash/internal/hamming"
)

// VPTree is a vantage-point tree over Euclidean-space embeddings: exact
// k-nearest-neighbor search with triangle-inequality pruning, typically
// sublinear on clustered embeddings. It addresses the paper's observation
// (Section I) that neural-similarity methods "calculate all the distances
// between the query and the trajectories in the database" — the latent
// space can also be organized by a metric tree; the Hamming code table is
// the paper's answer, and this is the classical Euclidean one, provided
// for comparison (see BenchmarkSearchVPTree in the root bench suite).
type VPTree struct {
	vecs *slab // a private copy from NewVPTree, or the store's column
	root *vpNode
}

type vpNode struct {
	id      int     // vantage point
	radius  float64 // median distance of the subtree's points to the vantage
	inside  *vpNode // points with d(x, vantage) < radius
	outside *vpNode
}

// NewVPTree builds the tree over a copy of the vectors (all of equal
// dimension).
func NewVPTree(vectors [][]float64, seed int64) (*VPTree, error) {
	if len(vectors) == 0 {
		return nil, fmt.Errorf("engine: empty vector set")
	}
	st := NewStore(Config{})
	for i, v := range vectors {
		if err := st.Add(v, hamming.Code{}); err != nil {
			return nil, fmt.Errorf("%w (vector %d)", err, i)
		}
	}
	return newVPTree(&st.embs, seed), nil
}

// newVPTree builds the tree over the rows of a non-empty store, which
// must not change while the tree is in use.
func newVPTree(vecs *slab, seed int64) *VPTree {
	t := &VPTree{vecs: vecs}
	ids := make([]int, vecs.len())
	for i := range ids {
		ids[i] = i
	}
	t.root = t.build(ids, rand.New(rand.NewSource(seed)))
	return t
}

func (t *VPTree) dist(a, b int) float64 {
	return math.Sqrt(sqDist(t.vecs.at(a), t.vecs.at(b)))
}

func (t *VPTree) distToQuery(q []float64, id int) float64 {
	return math.Sqrt(sqDist(q, t.vecs.at(id)))
}

func (t *VPTree) build(ids []int, rng *rand.Rand) *vpNode {
	if len(ids) == 0 {
		return nil
	}
	// Random vantage point.
	vi := rng.Intn(len(ids))
	ids[0], ids[vi] = ids[vi], ids[0]
	n := &vpNode{id: ids[0]}
	rest := ids[1:]
	if len(rest) == 0 {
		return n
	}
	ds := make([]float64, len(rest))
	for i, id := range rest {
		ds[i] = t.dist(n.id, id)
	}
	// Partition around the median distance.
	order := make([]int, len(rest))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return ds[order[a]] < ds[order[b]] })
	mid := len(order) / 2
	n.radius = ds[order[mid]]
	inside := make([]int, 0, mid)
	outside := make([]int, 0, len(order)-mid)
	for _, oi := range order[:mid] {
		inside = append(inside, rest[oi])
	}
	for _, oi := range order[mid:] {
		outside = append(outside, rest[oi])
	}
	n.inside = t.build(inside, rng)
	n.outside = t.build(outside, rng)
	return n
}

// knnHeap is a bounded max-heap of the current best candidates.
type knnHeap struct {
	ids   []int
	dists []float64
	k     int
}

func (h *knnHeap) worstDist() float64 {
	if len(h.ids) < h.k {
		return math.Inf(1)
	}
	return h.dists[0]
}

func (h *knnHeap) push(id int, d float64) {
	if len(h.ids) < h.k {
		h.ids = append(h.ids, id)
		h.dists = append(h.dists, d)
		i := len(h.ids) - 1
		for i > 0 {
			p := (i - 1) / 2
			if !h.less(p, i) {
				break
			}
			h.swap(i, p)
			i = p
		}
		return
	}
	if d >= h.dists[0] {
		return
	}
	h.ids[0], h.dists[0] = id, d
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		w := i
		if l < len(h.ids) && h.less(w, l) {
			w = l
		}
		if r < len(h.ids) && h.less(w, r) {
			w = r
		}
		if w == i {
			return
		}
		h.swap(i, w)
		i = w
	}
}

// less reports whether entry a is better-kept (closer) than b — the heap
// keeps the worst on top.
func (h *knnHeap) less(a, b int) bool {
	//lint:ignore floatcompare heap tie-break over stored distances; exact inequality of the same stored values is the determinism contract
	if h.dists[a] != h.dists[b] {
		return h.dists[a] < h.dists[b]
	}
	return h.ids[a] < h.ids[b]
}

func (h *knnHeap) swap(a, b int) {
	h.ids[a], h.ids[b] = h.ids[b], h.ids[a]
	h.dists[a], h.dists[b] = h.dists[b], h.dists[a]
}

// Search returns the exact k nearest vector ids to q, closest first.
// Visited counts distance evaluations (exposed for pruning diagnostics).
func (t *VPTree) Search(q []float64, k int) (ids []int, visited int) {
	if len(q) != t.vecs.dim {
		panic(fmt.Sprintf("engine: query dim %d, tree dim %d", len(q), t.vecs.dim))
	}
	h := &knnHeap{k: k}
	var walk func(n *vpNode)
	walk = func(n *vpNode) {
		if n == nil {
			return
		}
		d := t.distToQuery(q, n.id)
		visited++
		h.push(n.id, d)
		// Descend into the more promising half first, then prune the other
		// with the (possibly tightened) k-th best distance.
		if d < n.radius {
			walk(n.inside)
			if d+h.worstDist() >= n.radius {
				walk(n.outside)
			}
		} else {
			walk(n.outside)
			if d-h.worstDist() <= n.radius {
				walk(n.inside)
			}
		}
	}
	walk(t.root)
	// Extract ascending.
	type pair struct {
		id int
		d  float64
	}
	ps := make([]pair, len(h.ids))
	for i := range h.ids {
		ps[i] = pair{h.ids[i], h.dists[i]}
	}
	sort.Slice(ps, func(a, b int) bool {
		//lint:ignore floatcompare sort tie-break over stored distances; see knnHeap.less
		if ps[a].d != ps[b].d {
			return ps[a].d < ps[b].d
		}
		return ps[a].id < ps[b].id
	})
	out := make([]int, len(ps))
	for i, p := range ps {
		out[i] = p.id
	}
	return out, visited
}
