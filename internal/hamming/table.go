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

// truncate drops every code from index n on.
func (s *Slab) truncate(n int) { s.words = s.words[:n*s.stride] }

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
// The buckets form a dense directory: bucket i's code is keys.At(i) and
// its ids are buckets[i], so a search can walk the distinct codes as one
// flat array — the same columnar layout the item codes have. The maps
// only locate a code's directory position (codes up to 64 bits by their
// raw word, no allocation per probe; longer codes by string key).
//
// Every bucket is non-empty and holds its ids in ascending order —
// invariants the write side (NewTable, Add, Update) maintains so that the
// read side never has to sort, and therefore never writes, table memory:
// concurrent searches are safe under a reader lock.
type Table struct {
	fast    map[uint64]int // single-word code → directory position
	slow    map[string]int // multi-word code key → directory position
	keys    Slab           // the distinct codes, one per bucket
	buckets [][]int        // bucket i holds the ids whose code is keys.At(i)
	codes   Slab           // item id → code
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
		t.fast = make(map[uint64]int, len(codes))
	} else {
		t.slow = make(map[string]int, len(codes))
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
	t.remove(old, id)
	t.insert(c, id)
	t.codes.Set(id, c)
	return nil
}

// position returns the directory position of c's bucket, if it has one.
func (t *Table) position(c Code) (int, bool) {
	if t.fast != nil {
		bi, ok := t.fast[c.Words[0]]
		return bi, ok
	}
	bi, ok := t.slow[c.Key()]
	return bi, ok
}

// setPosition records that c's bucket sits at directory position bi.
func (t *Table) setPosition(c Code, bi int) {
	if t.fast != nil {
		t.fast[c.Words[0]] = bi
	} else {
		t.slow[c.Key()] = bi
	}
}

// insert puts id into c's bucket at its ordered position, appending a
// new bucket to the directory when c is a code the table has not seen.
func (t *Table) insert(c Code, id int) {
	bi, ok := t.position(c)
	if !ok {
		bi = len(t.buckets)
		t.keys.Append(c)
		t.buckets = append(t.buckets, nil)
		t.setPosition(c, bi)
	}
	ids := t.buckets[bi]
	at := sort.SearchInts(ids, id)
	ids = append(ids, 0)
	copy(ids[at+1:], ids[at:])
	ids[at] = id
	t.buckets[bi] = ids
}

// remove takes id out of c's bucket, keeping the rest in order. A bucket
// it empties leaves the directory: the last bucket is swapped into its
// position (and that key's map entry re-pointed), so the directory stays
// dense and its length is the number of non-empty buckets.
func (t *Table) remove(c Code, id int) {
	bi, ok := t.position(c)
	if !ok {
		return
	}
	ids := t.buckets[bi]
	at := sort.SearchInts(ids, id)
	if at == len(ids) || ids[at] != id {
		return
	}
	if len(ids) > 1 {
		t.buckets[bi] = append(ids[:at], ids[at+1:]...)
		return
	}
	if t.fast != nil {
		delete(t.fast, c.Words[0])
	} else {
		delete(t.slow, c.Key())
	}
	last := len(t.buckets) - 1
	if bi != last {
		moved := t.keys.At(last)
		t.setPosition(moved, bi)
		t.keys.Set(bi, moved)
		t.buckets[bi] = t.buckets[last]
	}
	t.buckets[last] = nil
	t.buckets = t.buckets[:last]
	t.keys.truncate(last)
}

// Len returns the number of indexed items.
func (t *Table) Len() int { return t.codes.Len() }

// Bits returns the code length.
func (t *Table) Bits() int { return t.codes.bits }

// Buckets returns the number of non-empty buckets: the directory length.
func (t *Table) Buckets() int { return len(t.buckets) }

// Lookup returns the ids in the exact bucket of q, ascending. The slice
// aliases the table's own storage: callers must not modify it.
func (t *Table) Lookup(q Code) []int {
	if bi, ok := t.position(q); ok {
		return t.buckets[bi]
	}
	return nil
}

// lookupFlipped returns the bucket of q with bits i (and j ≥ 0) flipped,
// without materializing a new Code for single-word tables.
func (t *Table) lookupFlipped(q Code, i, j int) []int {
	if t.fast != nil {
		w := q.Words[0] ^ (1 << uint(i))
		if j >= 0 {
			w ^= 1 << uint(j)
		}
		if bi, ok := t.fast[w]; ok {
			return t.buckets[bi]
		}
		return nil
	}
	c := q.FlipBit(i)
	if j >= 0 {
		c = c.FlipBit(j)
	}
	return t.Lookup(c)
}

// MaxRadius is the radius of the paper's table-lookup strategy: two
// flipped bits, past which the flip buckets (C(bits, r) of them) outgrow
// a scan. LookupRadius enumerates no further and Hybrid reports its fast
// path against it.
const MaxRadius = 2

// LookupRadius returns all ids within Hamming distance radius of q,
// enumerated by flipping up to radius bits. Flip buckets are pairwise
// disjoint, so no deduplication is needed. Only radii 0–MaxRadius are
// enumerated — a radius outside that range gets the nearest supported
// one's set, so callers that take a radius from outside validate it
// first (engine.WithinCtx rejects it with an error).
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

// fresh returns selection state for one search, sized up front: the
// convenience form then allocates twice per call, where a zero Selector
// and a nil result would each grow by doubling.
func (t *Table) fresh(k int) (topk.Selector, []Neighbor) {
	n := max(0, min(k, t.Len()))
	var sel topk.Selector
	sel.Reserve(n)
	return sel, make([]Neighbor, 0, n)
}

// BruteForceInto returns the k nearest items to q by scanning all codes —
// the Hamming-BF strategy. Ties break by id for determinism. Selection is
// O(n log k), so the popcount scan dominates. The caller owns the state:
// sel holds the selection heap and dst the result storage (its backing
// array is reused via append, so passing the previous call's result back
// in makes the steady state allocation-free). The returned slice aliases
// dst's storage and sel's buffer lifetime — consume it before the next
// call.
//
//perf:hotpath the Hamming-BF scan is one of the two serving hot paths (ROADMAP); it runs per query per shard over every indexed code
func (t *Table) BruteForceInto(q Code, k int, sel *topk.Selector, dst []Neighbor) []Neighbor {
	return t.codes.Nearest(q, k, sel, dst)
}

// Nearest is the Hamming-BF item scan with caller-owned state (see
// BruteForceInto), for every bit length: a threshold scan — XOR
// + popcount per code and one integer comparison against the current
// k-th distance; the heap is touched only on an improvement. d < worst
// is exact: ids ascend during the scan, so a candidate that ties the
// k-th distance has a larger id than everything kept and ranks after it
// under (distance, id). A query of another bit length is a caller bug
// and panics, once per call rather than once per code.
//
//perf:hotpath the inner loop of the Hamming-BF scan: a bounds check or an allocation here multiplies by n codes per query
func (s *Slab) Nearest(q Code, k int, sel *topk.Selector, dst []Neighbor) []Neighbor {
	words, qw := s.words, q.Words
	if q.Bits != s.bits || len(qw) != s.stride {
		panic("hamming: code length mismatch in brute-force scan")
	}
	if k <= 0 {
		return dst[:0]
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
	return neighbors(sel.Finish(), dst)
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

// neighbors writes a finished selection into dst's storage.
func neighbors(items []topk.Item, dst []Neighbor) []Neighbor {
	dst = dst[:0]
	for _, it := range items {
		dst = append(dst, Neighbor{ID: it.ID, Distance: int(it.Dist)})
	}
	return dst
}

// Hybrid implements the Hamming-Hybrid strategy of Section V-E: the k
// nearest items, and whether the radius-2 neighborhood of q alone
// answered — it held at least k items, the paper's table-lookup fast
// path. A non-positive k has the empty answer and no fast path. The
// result is freshly allocated; hot callers should use HybridInto with
// reused state.
func (t *Table) Hybrid(q Code, k int) ([]Neighbor, bool) {
	sel, dst := t.fresh(k)
	return t.HybridInto(q, k, &sel, dst)
}

// HybridInto is Hybrid with caller-owned state, as BruteForceInto
// takes it. It is one threshold scan over the directory's distinct
// codes: a bucket whose distance exceeds the current k-th distance is
// skipped, every other bucket offers its ids. That is exact — each item
// sits in exactly one bucket and the bound only ever falls — so the
// answer equals BruteForceInto's id for id. Buckets that tie the bound are
// offered (d <= worst where the item scan has d < worst) because ids do
// not ascend across buckets; the selector's (distance, id) order settles
// them. The cost is one pass over Buckets() keys whichever radius
// answers: no flip enumeration, no fallback scan. A query of another bit
// length is a caller bug and panics.
//
//perf:hotpath the hybrid search is the default serving path: it runs per query per shard over every distinct code
func (t *Table) HybridInto(q Code, k int, sel *topk.Selector, dst []Neighbor) ([]Neighbor, bool) {
	keys, buckets, qw := t.keys.words, t.buckets, q.Words
	if q.Bits != t.keys.bits || len(qw) != t.keys.stride {
		panic("hamming: code length mismatch in hybrid search")
	}
	if k <= 0 {
		return dst[:0], false
	}
	sel.Begin(k)
	worst := threshold(sel, q.Bits)
	if len(qw) == 1 {
		q0 := qw[0]
		buckets = buckets[:len(keys)] // one key per bucket: lets buckets[bi] go unchecked
		for bi, w := range keys {
			if d := bits.OnesCount64(w ^ q0); d <= worst {
				offerBucket(sel, buckets[bi], k, d)
				worst = threshold(sel, q.Bits)
			}
		}
	} else {
		for len(keys) >= len(qw) && len(buckets) > 0 {
			row, ids := keys[:len(qw)], buckets[0]
			keys, buckets = keys[len(qw):], buckets[1:]
			var d int
			for j, w := range qw {
				d += bits.OnesCount64(w ^ row[j])
			}
			if d <= worst {
				offerBucket(sel, ids, k, d)
				worst = threshold(sel, q.Bits)
			}
		}
	}
	dst = neighbors(sel.Finish(), dst)
	return dst, len(dst) == k && dst[k-1].Distance <= MaxRadius
}

// offerBucket offers the ids of one bucket, all at distance d. The ids
// ascend, so only the k smallest can rank: a bucket of thousands costs k
// offers.
func offerBucket(sel *topk.Selector, ids []int, k, d int) {
	if len(ids) > k {
		ids = ids[:k]
	}
	for _, id := range ids {
		sel.Offer(id, float64(d))
	}
}
