package nn

// Tape-free forward mode. Every op in this package has ONE forward
// kernel; what differs between training and serving is only where the
// output lives and whether a backward closure is recorded:
//
//   - Under the tape (the default) an op heap-allocates its output and,
//     when any input is in the gradient graph, records its parents and a
//     backward closure.
//   - When any input was allocated from a Scratch, the op takes the
//     early branch in output(): the result comes from the same Scratch,
//     no closure is built, and no parents are kept. The mode therefore
//     propagates from a forward pass's inputs exactly like requiresGrad
//     does — create the inputs with Scratch.New / Scratch.Input and the
//     whole pass is tape-free.
//
// The caller owns the Scratch: tensors handed out by it die at the next
// Reset (or at the Keep that releases them), and the storage itself dies
// with the Scratch — nothing is pooled or parked on a model.

const (
	scratchFloats  = 8192 // floats per data chunk (64 KB)
	scratchHeaders = 64   // tensor headers per header chunk
)

// arena is a chunked bump allocator with stack discipline: take moves
// the cursor forward, reset moves it back. Chunks are never reallocated,
// so handed-out slices (and element addresses) stay valid until reset.
type arena[T any] struct {
	chunks [][]T
	pos    arenaPos
}

// arenaPos is a cursor: the next free element is chunks[chunk][off].
type arenaPos struct{ chunk, off int }

// take returns n contiguous elements (stale contents), growing the arena
// by max(n, chunkLen) when no existing chunk past the cursor has room.
func (a *arena[T]) take(n, chunkLen int) []T {
	for ; a.pos.chunk < len(a.chunks); a.pos = (arenaPos{a.pos.chunk + 1, 0}) {
		c := a.chunks[a.pos.chunk]
		if end := a.pos.off + n; end <= len(c) {
			s := c[a.pos.off:end:end]
			a.pos.off = end
			return s
		}
	}
	if chunkLen < n {
		chunkLen = n
	}
	a.chunks = append(a.chunks, make([]T, chunkLen))
	a.pos.off = n
	return a.chunks[a.pos.chunk][:n:n]
}

// Scratch is caller-owned storage for one tape-free forward pass at a
// time: tensor data and tensor headers both come from chunked arenas, so
// a pass costs a handful of chunk allocations the first time and none
// when the Scratch is Reset and reused. The zero value is ready to use.
// A nil *Scratch is the taped mode: New allocates on the heap and
// Input, Mark and Reset are no-ops, which is what lets one forward
// function serve both modes.
//
// A Scratch is not safe for concurrent use; give each goroutine its own.
type Scratch struct {
	data arena[float64]
	hdrs arena[Tensor]
}

// header returns a recycled tensor header describing data, owned by s.
func (s *Scratch) header(rows, cols int, data []float64) *Tensor {
	t := &s.hdrs.take(1, scratchHeaders)[0]
	*t = Tensor{Rows: rows, Cols: cols, Data: data, scratch: s}
	return t
}

// alloc returns a rows×cols tensor with stale contents.
func (s *Scratch) alloc(rows, cols int) *Tensor {
	return s.header(rows, cols, s.data.take(rows*cols, scratchFloats))
}

// New returns a zero rows×cols tensor owned by s; ops applied to it run
// tape-free. On a nil Scratch it is the package-level New.
func (s *Scratch) New(rows, cols int) *Tensor {
	if s == nil || rows <= 0 || cols <= 0 {
		return New(rows, cols) // which rejects the empty shape
	}
	t := s.alloc(rows, cols)
	clear(t.Data)
	return t
}

// Input returns a view of the constant tensor t (data shared, not
// copied) that makes the ops consuming it run tape-free on s. On a nil
// Scratch it returns t itself.
func (s *Scratch) Input(t *Tensor) *Tensor {
	if s == nil {
		return t
	}
	return s.header(t.Rows, t.Cols, t.Data)
}

// Reset releases every tensor s has handed out; the storage is kept for
// the next pass.
func (s *Scratch) Reset() {
	if s != nil {
		s.data.pos, s.hdrs.pos = arenaPos{}, arenaPos{}
	}
}

// Mark is a point in a Scratch's allocation order, taken by a layer on
// entry so it can release its intermediates on exit (Keep).
type Mark struct {
	s          *Scratch
	data, hdrs arenaPos
}

// Mark records the current allocation point. On a nil Scratch it returns
// the zero Mark, whose Keep is the identity.
func (s *Scratch) Mark() Mark {
	if s == nil {
		return Mark{}
	}
	return Mark{s: s, data: s.data.pos, hdrs: s.hdrs.pos}
}

// Keep releases everything allocated since the mark except t, which is
// moved down to the mark and returned. This bounds a pass's footprint to
// its peak live intermediates instead of their sum. Under the tape (zero
// Mark) it returns t unchanged — the graph owns every intermediate.
func (m Mark) Keep(t *Tensor) *Tensor {
	s := m.s
	if s == nil {
		return t
	}
	rows, cols, src := t.Rows, t.Cols, t.Data
	s.data.pos, s.hdrs.pos = m.data, m.hdrs
	out := s.alloc(rows, cols)
	copy(out.Data, src) // regions may overlap; copy is a memmove
	return out
}

// matmul accumulates a·b into out for a (n×k), b (k×m) and out (n×m,
// zeroed by the caller): the textbook i-p-j loop, cache-friendly in both
// b and out. It is the one forward matrix-multiply kernel of the package,
// shared by MatMul's forward (both modes) and MatMulInto, so the three
// agree to the last bit. MatMul's backward has two kernels of its own,
// matmulGradA and matmulGradB (beside MatMul in ops.go, linked after the
// forward functions they would otherwise move), and they keep a
// summation-order contract:
// every gradient element is built from the same products, added in the
// same order, as the textbook column loops they replace, so a trained
// model's bits do not depend on which kernels computed its gradients.
func matmul(out, a, b []float64, n, k, m int) {
	for i := 0; i < n; i++ {
		arow := a[i*k : (i+1)*k]
		orow := out[i*m : (i+1)*m]
		for p := 0; p < k; p++ {
			av := arow[p]
			//lint:ignore floatcompare sparsity fast path: skipping exactly-zero activations is exact (0·x contributes nothing)
			if av == 0 {
				continue
			}
			brow := b[p*m : (p+1)*m]
			for j := 0; j < m; j++ {
				orow[j] += av * brow[j]
			}
		}
	}
}

// MatMulInto computes dst = a·b for a (n×k), b (k×m), dst (n×m), without
// building a gradient graph and without allocating: the caller owns dst
// and reuses it across calls. dst must not alias a or b.
//
//perf:hotpath the raw kernel entry point for callers that own their output buffer; must stay allocation-free
func MatMulInto(dst, a, b *Tensor) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic("nn: MatMulInto shape mismatch")
	}
	clear(dst.Data)
	matmul(dst.Data, a.Data, b.Data, a.Rows, a.Cols, b.Cols)
}
