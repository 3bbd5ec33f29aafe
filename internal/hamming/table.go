package hamming

import (
	"fmt"
	"math/bits"
	"sort"

	"traj2hash/internal/topk"
)

// Slab is a columnar store of equal-length codes: one flat word array in
// which code i occupies words[i*stride : (i+1)*stride], stride = ⌈bits/64⌉
// — 8 resident bytes per 64-bit code instead of a 32-byte Code header
// plus a separately allocated word, and one contiguous array for a scan
// to walk. Codes are copied in, so a Slab never aliases its callers'
// memory. The zero value is empty; the first Append fixes the bit length,
// and a code of another length after that is a caller bug (Table, MIH
// and the engine validate first) that panics.
type Slab struct {
	bits, stride int
	words        []uint64
}

// Len returns the number of stored codes.
func (s *Slab) Len() int {
	if s.stride == 0 {
		return 0
	}
	return len(s.words) / s.stride
}

// At returns code i as a view: its Words alias the store, are valid
// until the next Append, and must not be modified.
func (s *Slab) At(i int) Code {
	return Code{Bits: s.bits, Words: s.words[i*s.stride : (i+1)*s.stride : (i+1)*s.stride]}
}

// Append copies c in as the next code.
func (s *Slab) Append(c Code) {
	if s.stride == 0 {
		s.bits, s.stride = c.Bits, len(c.Words)
	}
	s.words = append(s.words, s.checked(c)...)
}

// Set overwrites code i with a copy of c.
func (s *Slab) Set(i int, c Code) { copy(s.At(i).Words, s.checked(c)) }

// checked returns c's words once c is known to have the store's length.
func (s *Slab) checked(c Code) []uint64 {
	if c.Bits != s.bits || len(c.Words) != s.stride {
		panic("hamming: code length mismatch in Slab")
	}
	return c.Words
}

// newSlab validates a constructor's code set and copies it in.
func newSlab(codes []Code) (Slab, error) {
	if len(codes) == 0 {
		return Slab{}, fmt.Errorf("hamming: empty code set")
	}
	s := Slab{words: make([]uint64, 0, len(codes)*len(codes[0].Words))}
	for i, c := range codes {
		if c.Bits != codes[0].Bits {
			return Slab{}, fmt.Errorf("hamming: code %d has %d bits, want %d", i, c.Bits, codes[0].Bits)
		}
		s.Append(c)
	}
	return s, nil
}

// Table is a hash index over binary codes: codes map to buckets of item
// ids. It supports exact-bucket lookup, radius-r lookup by bit-flip
// expansion, and the Hamming-Hybrid top-k search of Section V-E.
//
// Codes up to 64 bits are bucketed by their raw word (no allocation per
// probe); longer codes fall back to string keys. The codes themselves
// live in a Slab, which the brute-force scan walks.
//
// Every bucket holds its ids in ascending order — an invariant the write
// side (NewTable, Add, Update) maintains so that the read side never
// has to sort, and therefore never writes, table memory: concurrent
// searches are safe under a reader lock.
type Table struct {
	fast  map[uint64][]int // single-word codes
	slow  map[string][]int // multi-word codes
	codes Slab
}

// NewTable builds an index over the given codes; item i gets id i. The
// codes are copied: the table keeps no reference to the argument.
func NewTable(codes []Code) (*Table, error) {
	slab, err := newSlab(codes)
	if err != nil {
		return nil, err
	}
	t := &Table{codes: slab}
	if slab.bits <= 64 {
		t.fast = make(map[uint64][]int, len(codes))
	} else {
		t.slow = make(map[string][]int, len(codes))
	}
	for i, c := range codes {
		t.insert(c, i)
	}
	return t, nil
}

// Add indexes one more code, returning its id. The code length must match
// the table's.
func (t *Table) Add(c Code) (int, error) {
	if c.Bits != t.codes.bits {
		return 0, fmt.Errorf("hamming: code has %d bits, table has %d", c.Bits, t.codes.bits)
	}
	id := t.codes.Len()
	t.codes.Append(c)
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
	if id < 0 || id >= t.codes.Len() {
		return fmt.Errorf("hamming: update of unknown id %d (have %d codes)", id, t.codes.Len())
	}
	if c.Bits != t.codes.bits {
		return fmt.Errorf("hamming: code has %d bits, table has %d", c.Bits, t.codes.bits)
	}
	old := t.codes.At(id)
	if Equal(old, c) {
		return nil
	}
	if t.fast != nil {
		bucketRemove(t.fast, old.Words[0], id)
	} else {
		bucketRemove(t.slow, old.Key(), id)
	}
	t.insert(c, id)
	t.codes.Set(id, c)
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
func (t *Table) Len() int { return t.codes.Len() }

// Bits returns the code length.
func (t *Table) Bits() int { return t.codes.bits }

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
		for i := 0; i < t.codes.bits; i++ {
			out = append(out, t.lookupFlipped(q, i, -1)...)
		}
	}
	if radius >= 2 {
		for i := 0; i < t.codes.bits; i++ {
			for j := i + 1; j < t.codes.bits; j++ {
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
	return t.codes.nearest(q, k, sel, dst)
}

// nearest is the one scan kernel, for every bit length: a threshold scan
// — XOR + popcount per code and one integer comparison against the
// current k-th distance; the heap is touched only on an improvement.
// d < worst is exact: ids ascend during the scan, so a candidate that
// ties the k-th distance has a larger id than everything kept and ranks
// after it under (distance, id). A query of another bit length is a
// caller bug and panics, once per call rather than once per code.
//
//perf:hotpath the inner loop of every Hamming scan: a bounds check or an allocation here multiplies by n codes per query
func (s *Slab) nearest(q Code, k int, sel *topk.Selector, dst []Neighbor) []Neighbor {
	words, qw := s.words, q.Words
	if q.Bits != s.bits || len(qw) != s.stride {
		panic("hamming: code length mismatch in brute-force scan")
	}
	dst = dst[:0]
	if k <= 0 {
		return dst
	}
	sel.Begin(k) // k > n just never fills: Finish sorts what was offered
	worst := threshold(sel, q.Bits)
	if len(qw) == 1 {
		q0 := qw[0]
		for i, w := range words {
			if d := bits.OnesCount64(w ^ q0); d < worst {
				sel.Offer(i, float64(d))
				worst = threshold(sel, q.Bits)
			}
		}
	} else {
		for i := 0; len(words) >= len(qw); i++ {
			row := words[:len(qw)]
			words = words[len(qw):]
			var d int
			for j, w := range qw {
				d += bits.OnesCount64(w ^ row[j])
			}
			if d < worst {
				sel.Offer(i, float64(d))
				worst = threshold(sel, q.Bits)
			}
		}
	}
	for _, it := range sel.Finish() {
		dst = append(dst, Neighbor{ID: it.ID, Distance: int(it.Dist)})
	}
	return dst
}

// threshold is the scan's integer bound: the selector's current k-th
// distance, or one above every possible distance while fewer than k
// candidates are kept (so the first k are all offered).
func threshold(sel *topk.Selector, bits int) int {
	if w := sel.Worst(); w <= float64(bits) {
		return int(w)
	}
	return bits + 1
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
	for i := 0; i < t.codes.bits; i++ {
		d1 = append(d1, t.lookupFlipped(q, i, -1)...)
	}
	for i := 0; i < t.codes.bits; i++ {
		for j := i + 1; j < t.codes.bits; j++ {
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
