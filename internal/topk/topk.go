// Package topk provides bounded top-k selection by score: O(n log k)
// instead of sorting the full candidate list, which is what makes the
// distance computation (not the sort) dominate brute-force search costs —
// matching how the paper's search strategies are implemented.
//
// The core is the reusable Selector: a bounded max-heap whose backing
// array survives across calls, so steady-state selection performs zero
// heap allocations (the //perf:hotpath contract on Selector.Select,
// enforced by trajlint's hotpathalloc rule and locked in by the
// AllocsPerRun tests). The package-level Select/SelectSlice helpers
// remain the convenient one-shot forms.
package topk

import "math"

// Item is a candidate with its distance (smaller is better).
type Item struct {
	ID   int
	Dist float64
}

// worse reports whether a ranks after b: greater distance, ties broken
// by greater id. It is a total order over distinct ids, which is what
// makes Select's output deterministic and lets the sharded engine merge
// per-shard top-k lists into the exact global answer (see the
// cross-backend parity tests in internal/engine).
func worse(a, b Item) bool {
	//lint:ignore floatcompare heap tie-break over stored distances; exact inequality of the same stored values is the ascending-id determinism contract
	if a.Dist != b.Dist {
		return a.Dist > b.Dist
	}
	return a.ID > b.ID
}

// heapify builds the max-heap invariant in place in O(len(h)) (Floyd's
// bottom-up construction). It runs once per Select, outside the scan
// loop — which is also what keeps its bounds checks out of the
// //perf:hotpath loop contract: per-item sift-up indexing (i = (i-1)/2)
// is beyond what the compiler's prove pass can discharge.
func heapify(h []Item) {
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i, len(h))
	}
}

// siftDown restores the invariant from index i within h[:m].
func siftDown(h []Item, i, m int) {
	for {
		l, r := 2*i+1, 2*i+2
		w := i
		if l < m && worse(h[l], h[w]) {
			w = l
		}
		if r < m && worse(h[r], h[w]) {
			w = r
		}
		if w == i {
			return
		}
		h[i], h[w] = h[w], h[i]
		i = w
	}
}

// Selector is reusable top-k selection state. The zero value is ready to
// use; the heap's backing array is recycled across calls, so a Selector
// kept across queries allocates nothing per call once it has grown to
// the largest k it has seen (append's amortized growth is the only
// allocation it ever performs). A Selector is not safe for concurrent
// use, and the slice returned by Select or Finish aliases the Selector's
// buffer — consume or copy it before the next call.
//
// Select is the closure form. Scans that compute their own distances
// (the Hamming kernel) drive the same heap through the streaming form:
// Begin(k), Offer per candidate — guarded by a comparison against Worst
// so that the heap is touched only on an improvement — then Finish.
type Selector struct {
	h []Item
	k int
}

// Reserve grows the buffer to hold k candidates, so that a selection of
// up to k started afterwards allocates nothing. It is for callers that
// know k before they reach a //perf:hotpath scan, which may not
// allocate; a Selector that is never reserved grows by append instead.
func (s *Selector) Reserve(k int) {
	if cap(s.h) < k {
		s.h = make([]Item, 0, k)
	}
}

// Begin starts a streaming selection of the k best candidates,
// discarding any previous selection.
func (s *Selector) Begin(k int) {
	s.h = s.h[:0]
	s.k = k
}

// Offer considers one candidate, in any id order. The first k offers
// fill the buffer unordered and heapify once — O(k) instead of k
// sift-ups; every decision after that compares only against the root,
// which is the same unique worst element under any valid heap layout, so
// the output ordering is unaffected by the construction order.
//
//perf:hotpath Offer is the per-improvement step of every top-k scan; an allocation here multiplies by the candidates that improve the selection
func (s *Selector) Offer(id int, dist float64) {
	it := Item{ID: id, Dist: dist}
	if len(s.h) < s.k {
		s.h = append(s.h, it)
		if len(s.h) == s.k {
			heapify(s.h)
		}
		return
	}
	if len(s.h) > 0 && worse(s.h[0], it) {
		s.h[0] = it
		siftDown(s.h, 0, len(s.h))
	}
}

// Worst returns the distance of the worst candidate currently kept once
// k are held, +Inf before. A scan that offers ids in ascending order may
// skip every candidate whose distance is not below it: an equal distance
// at a later id ranks after everything kept, so the check is exact.
func (s *Selector) Worst() float64 {
	if len(s.h) < s.k || len(s.h) == 0 {
		return math.Inf(1)
	}
	return s.h[0].Dist
}

// Finish ends a streaming selection: the kept candidates sorted
// ascending by (distance, id), aliasing the Selector's buffer. The
// ordering pass is an in-place heapsort over the max-heap rather than
// sort.Slice, whose closure and interface boxing allocate per call.
func (s *Selector) Finish() []Item {
	h := s.h
	if len(h) < s.k {
		heapify(h) // fewer than k offered: the buffer is still unordered
	}
	// Repeatedly move the worst remaining to the tail, leaving the array
	// ascending (best first) under the worse ordering.
	for m := len(h); m > 1; m-- {
		h[0], h[m-1] = h[m-1], h[0]
		siftDown(h, 0, m-1)
	}
	return h
}

// Select returns the k items with the smallest distances among ids
// [0, n), using the dist callback, sorted ascending with ties broken by
// ascending id (the worse ordering, exactly as the package-level Select
// documents). The result aliases the Selector's internal buffer. dist is
// called exactly once per id, in ascending id order — which is what lets
// the steady-state loop decide with one comparison against Worst.
//
//perf:hotpath top-k selection runs once per query per shard; the scan it ranks only keeps its O(n log k) bound if selection itself stays allocation-free
func (s *Selector) Select(n, k int, dist func(i int) float64) []Item {
	if k <= 0 || n <= 0 {
		return nil
	}
	if k > n {
		k = n
	}
	s.Begin(k)
	for i := 0; i < k; i++ {
		s.Offer(i, dist(i))
	}
	worst := s.Worst()
	for i := k; i < n; i++ {
		if d := dist(i); d < worst {
			s.Offer(i, d)
			worst = s.Worst()
		}
	}
	return s.Finish()
}

// Select returns the k items with the smallest distances among ids
// [0, n), using the dist callback, sorted ascending with ties broken by
// ascending id. The tie-break is a contract, not an accident (see
// worse). The returned slice is freshly allocated; hot paths that select
// repeatedly should hold a Selector instead.
func Select(n, k int, dist func(i int) float64) []Item {
	var s Selector
	return s.Select(n, k, dist)
}

// SelectSlice is Select over a precomputed distance slice.
func SelectSlice(dists []float64, k int) []Item {
	return Select(len(dists), k, func(i int) float64 { return dists[i] })
}
