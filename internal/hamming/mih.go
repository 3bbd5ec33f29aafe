package hamming

import (
	"fmt"
	"sort"

	"traj2hash/internal/topk"
)

// MIH is a multi-index hashing table (Norouzi, Punjani, Fleet): the code is
// split into m disjoint substrings, each indexed in its own table. By the
// pigeonhole principle, any code within Hamming distance r of the query
// matches at least one substring within ⌊r/m⌋, so candidate generation
// probes each substring table at a small radius instead of enumerating the
// full code's neighborhood — the classical fix for the paper's footnote-5
// observation that radius expansion over long codes scans mostly empty
// buckets.
//
// This is an extension beyond the paper (which caps lookup at radius 2 and
// falls back to a scan); see the extra benchmarks in bench_test.go.
type MIH struct {
	chunks    int
	chunkBits []int
	tables    []map[uint64][]int
	codes     Slab
}

// NewMIH indexes the codes with the given number of substrings (chunks).
// Chunks must divide into the code length with at most 64 bits each. The
// codes are copied: the index keeps no reference to the argument.
func NewMIH(codes []Code, chunks int) (*MIH, error) {
	slab, err := newSlab(codes)
	if err != nil {
		return nil, err
	}
	bits := slab.bits
	if chunks <= 0 || chunks > bits {
		return nil, fmt.Errorf("hamming: invalid chunk count %d for %d bits", chunks, bits)
	}
	m := &MIH{chunks: chunks, codes: slab}
	base := bits / chunks
	rem := bits % chunks
	for c := 0; c < chunks; c++ {
		w := base
		if c < rem {
			w++
		}
		if w > 64 {
			return nil, fmt.Errorf("hamming: chunk %d would span %d bits (max 64)", c, w)
		}
		m.chunkBits = append(m.chunkBits, w)
		m.tables = append(m.tables, make(map[uint64][]int))
	}
	for id, c := range codes {
		for ci, sub := range m.substrings(c) {
			m.tables[ci][sub] = append(m.tables[ci][sub], id)
		}
	}
	return m, nil
}

// Add indexes one more code incrementally, returning its id. The code
// length must match the index's. Chunk widths are fixed at construction,
// so insertion is a per-chunk map append.
func (m *MIH) Add(c Code) (int, error) {
	if c.Bits != m.codes.bits {
		return 0, fmt.Errorf("hamming: code has %d bits, MIH has %d", c.Bits, m.codes.bits)
	}
	id := m.codes.Len()
	m.codes.Append(c)
	for ci, sub := range m.substrings(c) {
		m.tables[ci][sub] = append(m.tables[ci][sub], id)
	}
	return id, nil
}

// Update replaces the code stored under id in place: for every chunk the
// id moves from the old substring's bucket to the new one and the scan
// array entry is overwritten, so id assignment and insertion order are
// untouched (the engine's tie-break contract under mutation). The new
// code's length must match the index's.
func (m *MIH) Update(id int, c Code) error {
	if id < 0 || id >= m.codes.Len() {
		return fmt.Errorf("hamming: update of unknown id %d (have %d codes)", id, m.codes.Len())
	}
	if c.Bits != m.codes.bits {
		return fmt.Errorf("hamming: code has %d bits, MIH has %d", c.Bits, m.codes.bits)
	}
	old := m.codes.At(id)
	if Equal(old, c) {
		return nil
	}
	oldSubs := m.substrings(old)
	for ci, sub := range m.substrings(c) {
		if sub == oldSubs[ci] {
			continue
		}
		m.removeFromChunk(ci, oldSubs[ci], id)
		m.tables[ci][sub] = append(m.tables[ci][sub], id)
	}
	m.codes.Set(id, c)
	return nil
}

// removeFromChunk deletes id from one chunk table's bucket, dropping the
// bucket when it empties (bucket order is irrelevant: CandidatesInto
// sorts the gathered ids before returning them).
func (m *MIH) removeFromChunk(ci int, sub uint64, id int) {
	ids := m.tables[ci][sub]
	for i, v := range ids {
		if v == id {
			ids[i] = ids[len(ids)-1]
			ids = ids[:len(ids)-1]
			break
		}
	}
	if len(ids) == 0 {
		delete(m.tables[ci], sub)
		return
	}
	m.tables[ci][sub] = ids
}

// Len returns the number of indexed codes.
func (m *MIH) Len() int { return m.codes.Len() }

// Bits returns the code length.
func (m *MIH) Bits() int { return m.codes.bits }

// substrings extracts the chunk values of a code into a fresh slice.
// Hot paths use substringsInto with buffer-owned storage instead.
func (m *MIH) substrings(c Code) []uint64 {
	out := make([]uint64, m.chunks)
	m.substringsInto(c, out)
	return out
}

// substringsInto extracts the chunk values of a code into dst, which
// must hold at least m.chunks elements. Extraction is word-wise — each
// chunk is assembled from at most two shifted words — rather than
// per-bit, so the cost is O(chunks), not O(bits).
func (m *MIH) substringsInto(c Code, dst []uint64) {
	if len(dst) < m.chunks || len(m.chunkBits) < m.chunks {
		panic("hamming: substringsInto destination shorter than chunk count")
	}
	words := c.Words
	bit := 0
	for ci := 0; ci < m.chunks; ci++ {
		w := m.chunkBits[ci]
		lo := bit / 64
		off := uint(bit % 64)
		v := words[lo] >> off
		if off+uint(w) > 64 {
			v |= words[lo+1] << (64 - off)
		}
		if w < 64 {
			v &= (1 << uint(w)) - 1
		}
		dst[ci] = v
		bit += w
	}
}

// CandidateBuffer is the reusable state of MIH candidate generation:
// substring scratch plus the result slice (no per-query map — dedup is
// a sort-and-compact over the gathered ids, see sortedUnique). The zero
// value is ready; storage grows on first use and is recycled afterwards,
// so a buffer held across queries makes CandidatesInto allocation-free
// in the steady state. A CandidateBuffer is not safe for concurrent use,
// and the slice CandidatesInto returns aliases it — consume before the
// next call.
type CandidateBuffer struct {
	subs []uint64
	ids  []int
}

// reset prepares the buffer for one candidate-generation pass over
// chunks substrings. Growth happens here — through append, whose
// amortized reallocation is the buffer's ownership contract — never in
// the per-bucket loops.
func (b *CandidateBuffer) reset(chunks int) {
	for len(b.subs) < chunks {
		b.subs = append(b.subs, 0)
	}
	b.ids = b.ids[:0]
}

// sortedUnique sorts ids ascending and compacts duplicates in place,
// returning the shortened slice. Candidate generation gathers bucket
// contents with duplicates (a code can match the query in several
// chunks) and pays one post-pass here instead of a per-entry dedup
// structure in the probe loop — the ascending sort is required for the
// deterministic output contract anyway, so dedup rides along at the
// same O(c log c).
func sortedUnique(ids []int) []int {
	sort.Ints(ids)
	n := 0
	for i, id := range ids {
		if i == 0 || ids[n-1] != id {
			ids[n] = id
			n++
		}
	}
	return ids[:n]
}

// CandidatesInto returns the ids whose codes match at least one query
// substring within subRadius bit flips. By pigeonhole this is a superset
// of all codes within Hamming distance chunks·(subRadius+1)−1 of the
// query. The caller owns the state: the probe loop only reads buckets and
// appends into buf's reused slice (no per-query map, no per-entry dedup
// structure); duplicates are compacted by the final sort. The returned
// slice aliases buf and is valid until the next call with the same
// buffer.
//
//perf:hotpath MIH candidate generation probes every substring bucket per query; it replaced radius expansion precisely for speed, so it must not give the win back in map and slice churn
func (m *MIH) CandidatesInto(q Code, subRadius int, buf *CandidateBuffer) []int {
	buf.reset(m.chunks)
	tables := m.tables
	if len(m.chunkBits) < len(tables) || len(buf.subs) < len(tables) {
		panic("hamming: MIH chunk state out of sync")
	}
	chunkBits := m.chunkBits[:len(tables)]
	subs := buf.subs[:len(tables)]
	m.substringsInto(q, subs)
	ids := buf.ids[:0]
	for ci := range tables {
		t := tables[ci]
		sub := subs[ci]
		ids = append(ids, t[sub]...)
		w := chunkBits[ci]
		if subRadius >= 1 {
			for b := 0; b < w; b++ {
				ids = append(ids, t[sub^(1<<uint(b))]...)
			}
		}
		if subRadius >= 2 {
			for b1 := 0; b1 < w; b1++ {
				for b2 := b1 + 1; b2 < w; b2++ {
					ids = append(ids, t[sub^(1<<uint(b1))^(1<<uint(b2))]...)
				}
			}
		}
	}
	buf.ids = sortedUnique(ids)
	return buf.ids
}

// Search returns the exact top-k ids by Hamming distance: candidates are
// generated chunk-wise at growing substring radii; the search terminates
// once the k-th ranked candidate's distance falls within the pigeonhole
// guarantee chunks·(subRadius+1)−1, proving no closer code was missed.
// If the guarantee is never reached, it degenerates to a full scan.
func (m *MIH) Search(q Code, k int) []Neighbor {
	var buf CandidateBuffer // one buffer and selector serve all three rounds
	var sel topk.Selector
	for subRadius := 0; subRadius <= 2; subRadius++ {
		cands := m.CandidatesInto(q, subRadius, &buf)
		if len(cands) < k {
			continue
		}
		items := sel.Select(len(cands), k, func(i int) float64 {
			return float64(Distance(q, m.codes.At(cands[i])))
		})
		guarantee := m.chunks*(subRadius+1) - 1
		if int(items[len(items)-1].Dist) <= guarantee {
			ns := make([]Neighbor, len(items))
			for i, it := range items {
				ns[i] = Neighbor{ID: cands[it.ID], Distance: int(it.Dist)}
			}
			return ns
		}
	}
	// Guarantee unreachable within the probe budget: rank everything.
	return m.codes.Nearest(q, k, &sel, nil)
}
