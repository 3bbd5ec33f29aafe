package engine

import "traj2hash/internal/topk"

// slabChunkFloats caps one chunk of a slab at 4096 float64s = 32 KB (64
// rows at d = 64). A slab grows by whole chunks, never by reallocating
// one: a single growing slice would carry up to 25 % of append slack on
// a shard's tens of megabytes and would move every row when it grew.
const slabChunkFloats = 4096

// chunk is one block of a slab's rows, row-major, allocated at its full
// capacity so that appending into it never moves it.
type chunk []float64

// slab is the columnar embedding store — a Store's embedding column, the
// only place a shard keeps an embedding: the canonical array compaction
// rebuilds from and the rows euclidean-bf and vptree search. Row i lives
// in chunks[i/per] at offset (i%per)*dim. Vectors are copied in, so a slab
// never aliases its callers' memory, and rows never move, so a view from
// at stays valid while the slab grows. The zero value is empty; the first
// append fixes the dimension, and a row of another length after that is a
// caller bug (Store and NewVPTree validate first) that panics.
type slab struct {
	dim    int // row length, 0 until the first append
	per    int // rows per chunk: max(1, slabChunkFloats/dim)
	n      int // rows stored
	chunks []chunk
}

func (s *slab) len() int { return s.n }

// at returns row i as a view: it aliases the store and must not be
// modified or handed to callers outside the engine.
func (s *slab) at(i int) []float64 {
	off := (i % s.per) * s.dim
	return s.chunks[i/s.per][off : off+s.dim : off+s.dim]
}

// append copies the non-empty v in as the next row.
func (s *slab) append(v []float64) {
	if s.dim == 0 {
		s.dim, s.per = len(v), max(1, slabChunkFloats/len(v))
	}
	if len(v) != s.dim {
		panic("engine: row length mismatch in the embedding slab")
	}
	if s.n == len(s.chunks)*s.per {
		s.chunks = append(s.chunks, make(chunk, 0, s.per*s.dim))
	}
	last := &s.chunks[len(s.chunks)-1]
	*last = append(*last, v...) // within capacity: the chunk stays where it is
	s.n++
}

// set overwrites row i < len with a copy of v.
func (s *slab) set(i int, v []float64) {
	if len(v) != s.dim {
		panic("engine: row length mismatch in the embedding slab")
	}
	copy(s.at(i), v)
}

// nearest is the Euclidean-BF scan: the k rows with the smallest squared
// distance to q, ascending by (distance, row), aliasing sel's buffer. It
// is a threshold scan — a row reaches the heap only when it beats the
// current k-th distance. sum < worst is exact for the reason
// hamming.Slab's scan gives: rows ascend during the scan, so a row that
// ties the k-th distance ranks after everything kept. Each row is summed
// left to right from +0, which keeps scores bit-identical to a plain
// per-pair loop. A query of another dimension is a caller bug and
// panics, once per call.
//
//perf:hotpath the Euclidean-BF scan runs per query per shard over every stored float; a bounds check or an allocation here multiplies by n·d
func (s *slab) nearest(q []float64, k int, sel *topk.Selector) []topk.Item {
	if len(q) != s.dim {
		panic("engine: query dimension mismatch in the Euclidean scan")
	}
	if k <= 0 {
		return nil
	}
	sel.Begin(k) // k > n just never fills: Finish sorts what was offered
	worst, id := sel.Worst(), 0
	for _, c := range s.chunks {
		for rows := []float64(c); len(rows) >= len(q); rows = rows[len(q):] {
			row := rows[:len(q)]
			var sum float64
			for j, x := range q {
				d := x - row[j]
				sum += d * d
			}
			if sum < worst {
				sel.Offer(id, sum)
				worst = sel.Worst()
			}
			id++
		}
	}
	return sel.Finish()
}
