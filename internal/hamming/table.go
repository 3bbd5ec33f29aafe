package hamming

import (
	"fmt"
	"sort"

	"traj2hash/internal/topk"
)

// Table is a hash index over binary codes: codes map to buckets of item
// ids. It supports exact-bucket lookup, radius-r lookup by bit-flip
// expansion, and the Hamming-Hybrid top-k search of Section V-E.
//
// Codes up to 64 bits are bucketed by their raw word (no allocation per
// probe); longer codes fall back to string keys.
//
// Every bucket holds its ids in ascending order — an invariant the write
// side (NewTable, Add, Update) maintains so that the read side never
// has to sort, and therefore never writes, table memory: concurrent
// searches are safe under a reader lock.
type Table struct {
	bits  int
	fast  map[uint64][]int // single-word codes
	slow  map[string][]int // multi-word codes
	codes []Code
}

// NewTable builds an index over the given codes; item i gets id i.
func NewTable(codes []Code) (*Table, error) {
	if len(codes) == 0 {
		return nil, fmt.Errorf("hamming: empty code set")
	}
	bits := codes[0].Bits
	t := &Table{bits: bits, codes: codes}
	if bits <= 64 {
		t.fast = make(map[uint64][]int, len(codes))
	} else {
		t.slow = make(map[string][]int, len(codes))
	}
	for i, c := range codes {
		if c.Bits != bits {
			return nil, fmt.Errorf("hamming: code %d has %d bits, want %d", i, c.Bits, bits)
		}
		t.insert(c, i)
	}
	return t, nil
}

// Add indexes one more code, returning its id. The code length must match
// the table's.
func (t *Table) Add(c Code) (int, error) {
	if c.Bits != t.bits {
		return 0, fmt.Errorf("hamming: code has %d bits, table has %d", c.Bits, t.bits)
	}
	id := len(t.codes)
	t.codes = append(t.codes, c)
	t.insert(c, id)
	return id, nil
}

// Update replaces the code stored under id in place: the id moves from
// its old bucket to the new code's bucket and the scan array entry is
// overwritten, so id assignment and insertion order are untouched — the
// property the engine's deterministic tie-break contract relies on when
// items are updated after deletes. The new code's length must match the
// table's.
func (t *Table) Update(id int, c Code) error {
	if id < 0 || id >= len(t.codes) {
		return fmt.Errorf("hamming: update of unknown id %d (have %d codes)", id, len(t.codes))
	}
	if c.Bits != t.bits {
		return fmt.Errorf("hamming: code has %d bits, table has %d", c.Bits, t.bits)
	}
	old := t.codes[id]
	if Equal(old, c) {
		return nil
	}
	if t.fast != nil {
		bucketRemove(t.fast, old.Words[0], id)
	} else {
		bucketRemove(t.slow, old.Key(), id)
	}
	t.insert(c, id)
	t.codes[id] = c
	return nil
}

// insert puts id into c's bucket.
func (t *Table) insert(c Code, id int) {
	if t.fast != nil {
		bucketInsert(t.fast, c.Words[0], id)
	} else {
		bucketInsert(t.slow, c.Key(), id)
	}
}

// bucketInsert puts id into bucket k of m at its ordered position.
func bucketInsert[K comparable](m map[K][]int, k K, id int) {
	ids := m[k]
	at := sort.SearchInts(ids, id)
	ids = append(ids, 0)
	copy(ids[at+1:], ids[at:])
	ids[at] = id
	m[k] = ids
}

// bucketRemove takes id out of bucket k of m, keeping the rest in order;
// a bucket it empties is dropped from the map, so the map's length is
// the number of non-empty buckets.
func bucketRemove[K comparable](m map[K][]int, k K, id int) {
	ids := m[k]
	at := sort.SearchInts(ids, id)
	if at == len(ids) || ids[at] != id {
		return
	}
	if len(ids) == 1 {
		delete(m, k)
		return
	}
	m[k] = append(ids[:at], ids[at+1:]...)
}

// Len returns the number of indexed items.
func (t *Table) Len() int { return len(t.codes) }

// Bits returns the code length.
func (t *Table) Bits() int { return t.bits }

// Buckets returns the number of non-empty buckets.
func (t *Table) Buckets() int { return len(t.fast) + len(t.slow) }

// Lookup returns the ids in the exact bucket of q, ascending. The slice
// aliases the table's own storage: callers must not modify it.
func (t *Table) Lookup(q Code) []int {
	if t.fast != nil {
		return t.fast[q.Words[0]]
	}
	return t.slow[q.Key()]
}

// lookupFlipped returns the bucket of q with bits i (and j ≥ 0) flipped,
// without materializing a new Code for single-word tables.
func (t *Table) lookupFlipped(q Code, i, j int) []int {
	if t.fast != nil {
		w := q.Words[0] ^ (1 << uint(i))
		if j >= 0 {
			w ^= 1 << uint(j)
		}
		return t.fast[w]
	}
	c := q.FlipBit(i)
	if j >= 0 {
		c = c.FlipBit(j)
	}
	return t.slow[c.Key()]
}

// LookupRadius returns all ids within Hamming distance radius of q,
// enumerated by flipping up to radius bits (radius ≤ 2 per the paper's
// strategy). Flip buckets are pairwise disjoint, so no deduplication is
// needed.
func (t *Table) LookupRadius(q Code, radius int) []int {
	var out []int
	out = append(out, t.Lookup(q)...)
	if radius >= 1 {
		for i := 0; i < t.bits; i++ {
			out = append(out, t.lookupFlipped(q, i, -1)...)
		}
	}
	if radius >= 2 {
		for i := 0; i < t.bits; i++ {
			for j := i + 1; j < t.bits; j++ {
				out = append(out, t.lookupFlipped(q, i, j)...)
			}
		}
	}
	return out
}

// Neighbor pairs an item id with its Hamming distance to the query.
type Neighbor struct {
	ID       int
	Distance int
}

// BruteForce returns the k nearest items to q by scanning all codes — the
// Hamming-BF strategy. Ties break by id for determinism. Selection is
// O(n log k), so the popcount scan dominates. The result is freshly
// allocated; hot callers should use BruteForceInto with reused state.
func (t *Table) BruteForce(q Code, k int) []Neighbor {
	var sel topk.Selector
	return t.BruteForceInto(q, k, &sel, nil)
}

// BruteForceInto is BruteForce with caller-owned state: sel holds the
// selection heap and dst the result storage (its backing array is reused
// via append, so passing the previous call's result back in makes the
// steady state allocation-free). The returned slice aliases dst's
// storage and sel's buffer lifetime — consume it before the next call.
//
//perf:hotpath the Hamming-BF scan is one of the two serving hot paths (ROADMAP); it runs per query per shard over every indexed code
func (t *Table) BruteForceInto(q Code, k int, sel *topk.Selector, dst []Neighbor) []Neighbor {
	items := sel.Select(len(t.codes), k, func(i int) float64 {
		return float64(Distance(q, t.codes[i]))
	})
	dst = dst[:0]
	for _, it := range items {
		dst = append(dst, Neighbor{ID: it.ID, Distance: int(it.Dist)})
	}
	return dst
}

// Hybrid implements the Hamming-Hybrid strategy of Section V-E: search the
// radius-2 neighborhood via table lookup; if it contains at least k items,
// rank just those; otherwise fall back to the brute-force scan. The boolean
// reports whether the table-lookup fast path was taken.
//
// Candidates arrive grouped by exact distance (the flip radius of their
// bucket), so ranking is a per-group id sort with no distance computation.
func (t *Table) Hybrid(q Code, k int) ([]Neighbor, bool) {
	d0 := t.Lookup(q)
	var d1, d2 []int
	for i := 0; i < t.bits; i++ {
		d1 = append(d1, t.lookupFlipped(q, i, -1)...)
	}
	for i := 0; i < t.bits; i++ {
		for j := i + 1; j < t.bits; j++ {
			d2 = append(d2, t.lookupFlipped(q, i, j)...)
		}
	}
	if len(d0)+len(d1)+len(d2) < k {
		return t.BruteForce(q, k), false
	}
	out := make([]Neighbor, 0, k)
	for d, ids := range [][]int{d0, d1, d2} {
		if len(out) == k {
			break
		}
		if d > 0 {
			// d1 and d2 are private concatenations of many buckets; d0 is
			// the table's own bucket, already ascending and never written.
			sort.Ints(ids)
		}
		// Only the smallest ids of this distance group are needed.
		if need := k - len(out); len(ids) > need {
			ids = ids[:need]
		}
		for _, id := range ids {
			out = append(out, Neighbor{ID: id, Distance: d})
		}
	}
	return out, true
}
