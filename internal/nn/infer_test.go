package nn

import (
	"math"
	"math/rand"
	"testing"
)

// textbookMatMul is the reference the shared kernel is held to: the plain
// i-p-j loop, every term added in order (no sparsity skip).
func textbookMatMul(a, b *Tensor) []float64 {
	n, k, m := a.Rows, a.Cols, b.Cols
	out := make([]float64, n*m)
	for i := 0; i < n; i++ {
		for p := 0; p < k; p++ {
			for j := 0; j < m; j++ {
				out[i*m+j] += a.Data[i*k+p] * b.Data[p*m+j]
			}
		}
	}
	return out
}

// TestMatMulIntoMatchesMatMul holds MatMul (taped and tape-free) and
// MatMulInto — one kernel — to bit equality with the textbook loop, over
// assorted shapes (k a multiple of 4 and not), single-row inputs, and
// ReLU-sparse activations (exact zeros, which the kernel skips and the
// textbook loop multiplies through).
func TestMatMulIntoMatchesMatMul(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	shapes := []struct{ n, k, m int }{
		{1, 1, 1}, {2, 3, 4}, {5, 5, 5}, {1, 16, 8}, {7, 2, 9}, {3, 7, 5},
		{48, 64, 64}, {1, 64, 64}, {48, 16, 48}, {6, 13, 1},
	}
	for _, sh := range shapes {
		for _, sparse := range []bool{false, true} {
			a := Randn(sh.n, sh.k, 1, rng)
			b := Randn(sh.k, sh.m, 1, rng)
			a.Data[0] = 0
			if sparse {
				for i, v := range a.Data {
					if v < 0 {
						a.Data[i] = 0
					}
				}
			}
			want := textbookMatMul(a, b)
			dst := New(sh.n, sh.m)
			for i := range dst.Data {
				dst.Data[i] = math.NaN() // MatMulInto must overwrite, not accumulate
			}
			MatMulInto(dst, a, b)
			var s Scratch
			got := map[string][]float64{
				"MatMulInto":       dst.Data,
				"MatMul":           MatMul(a, b).Data,
				"tape-free MatMul": MatMul(s.Input(a), b).Data,
			}
			for name, data := range got {
				for i := range want {
					if math.Float64bits(data[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s %dx%dx%d sparse=%v element %d: got %v, want %v",
							name, sh.n, sh.k, sh.m, sparse, i, data[i], want[i])
					}
				}
			}
		}
	}
}

// TestMatMulIntoShapePanics checks the guard panics.
func TestMatMulIntoShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched shapes did not panic")
		}
	}()
	MatMulInto(New(2, 2), New(2, 3), New(4, 2))
}

// TestHotpathMatMulIntoZeroAlloc locks in the //perf:hotpath contract:
// the inference kernel allocates nothing, ever (it has no buffer to
// warm — the caller owns all storage).
func TestHotpathMatMulIntoZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	a := Randn(16, 32, 1, rng)
	b := Randn(32, 16, 1, rng)
	dst := New(16, 16)
	allocs := testing.AllocsPerRun(100, func() {
		MatMulInto(dst, a, b)
	})
	if allocs != 0 {
		t.Fatalf("MatMulInto allocated %v per call, want 0", allocs)
	}
}

// BenchmarkHotpathMatMulInto measures the kernel on a batch-of-1
// embedding times a square weight.
func BenchmarkHotpathMatMulInto(b *testing.B) {
	rng := rand.New(rand.NewSource(23))
	x := Randn(1, 128, 1, rng)
	w := Randn(128, 128, 1, rng)
	dst := New(1, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulInto(dst, x, w)
	}
}

// tapeFreeForwards is every layer a serving-time forward pass runs, as a
// function of its input.
func tapeFreeForwards(rng *rand.Rand) map[string]func(x *Tensor) *Tensor {
	block := NewEncoderBlock(8, 2, 8, true, rng)
	conv := NewConv3x3(4, 3, 8, 5, rng)
	pe := NewPositionalEncoding(5, 8)
	cls := XavierParam(1, 8, rng)
	gru := NewGRUCell(8, 6, rng)
	return map[string]func(x *Tensor) *Tensor{
		"block":  block.Forward,
		"conv":   func(x *Tensor) *Tensor { return ReLU(conv.Forward(x)) },
		"gru":    gru.Final,
		"pe+cls": func(x *Tensor) *Tensor { return MeanRows(ConcatRows(cls, pe.Add(x))) },
	}
}

// TestHotpathForwardNoTape checks the tape-free mode layer by layer: the
// same forward function, fed an input that lives on a Scratch, returns
// bit-identical values to the taped pass, records no parents and no
// backward closure, and — once the Scratch has been through one pass —
// allocates nothing.
func TestHotpathForwardNoTape(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	x := Randn(12, 8, 1, rng)
	for name, forward := range tapeFreeForwards(rng) {
		taped := forward(x)
		if taped.back == nil || len(taped.parents) == 0 {
			t.Fatalf("%s: the taped pass recorded no graph; the test would prove nothing", name)
		}
		var s Scratch
		var free *Tensor
		pass := func() {
			s.Reset()
			free = forward(s.Input(x))
		}
		pass()
		if free.back != nil || free.parents != nil || free.scratch != &s {
			t.Errorf("%s: tape-free result has back=%v parents=%d scratch=%p",
				name, free.back != nil, len(free.parents), free.scratch)
		}
		if free.Rows != taped.Rows || free.Cols != taped.Cols {
			t.Fatalf("%s: shape %dx%d, taped %dx%d", name, free.Rows, free.Cols, taped.Rows, taped.Cols)
		}
		for i := range taped.Data {
			if math.Float64bits(free.Data[i]) != math.Float64bits(taped.Data[i]) {
				t.Fatalf("%s element %d: tape-free %v, taped %v", name, i, free.Data[i], taped.Data[i])
			}
		}
		// The attention layer's per-call heads slice is the one allocation
		// a warm pass keeps (ConcatCols retains it under the tape).
		if allocs := testing.AllocsPerRun(20, pass); allocs > 1 {
			t.Errorf("%s: a warm tape-free pass allocated %v times", name, allocs)
		}
	}
}

// TestScratchKeepBoundsFootprint checks Mark/Keep: the kept tensor
// survives with its values, everything else allocated since the mark is
// reused, and a layer that releases its intermediates costs its peak, not
// its sum.
func TestScratchKeepBoundsFootprint(t *testing.T) {
	var s Scratch
	base := s.New(1, 4)
	copy(base.Data, []float64{1, 2, 3, 4})
	floats := func() int {
		n := 0
		for _, c := range s.data.chunks {
			n += len(c)
		}
		return n
	}
	var kept *Tensor
	afterFirst := 0
	for round := 0; round < 50; round++ {
		mark := s.Mark()
		tmp := s.New(100, 100) // larger than a chunk: gets its own
		tmp.Data[0] = float64(round)
		small := s.New(2, 3)
		for i := range small.Data {
			small.Data[i] = float64(round*10 + i)
		}
		kept = mark.Keep(small)
		for i, v := range kept.Data {
			if v != float64(round*10+i) {
				t.Fatalf("round %d: kept[%d] = %v", round, i, v)
			}
		}
		mark.Keep(kept) // keeping a tensor that already sits at the mark is harmless
		if round == 0 {
			afterFirst = floats()
		}
	}
	if base.Data[3] != 4 {
		t.Error("Keep disturbed a tensor allocated before the mark")
	}
	if got := floats(); got != afterFirst {
		t.Errorf("released rounds grew the scratch from %d to %d floats", afterFirst, got)
	}
	// A nil Scratch is the taped mode: everything is a no-op.
	var none *Scratch
	none.Reset()
	if h := none.New(2, 2); h.scratch != nil || none.Input(h) != h || none.Mark().Keep(h) != h {
		t.Error("nil Scratch is not the identity")
	}
}

// textbookGradA and textbookGradB are the oracles of MatMul's backward
// kernels: the column loops MatMul's backward ran before matmulGradA and
// matmulGradB existed, whose operations and order the kernels keep.
func textbookGradA(ag, g, b []float64, n, k, m int) {
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			gv := g[i*m+j]
			//lint:ignore floatcompare the oracle skips exactly-zero gradients, as the loop it preserves did
			if gv == 0 {
				continue
			}
			for p := 0; p < k; p++ {
				ag[i*k+p] += gv * b[p*m+j]
			}
		}
	}
}

func textbookGradB(bg, a, g []float64, n, k, m int) {
	for p := 0; p < k; p++ {
		for j := 0; j < m; j++ {
			var s float64
			for i := 0; i < n; i++ {
				s += a[i*k+p] * g[i*m+j]
			}
			bg[p*m+j] += s
		}
	}
}

// fillOperand fills x with normal values, about one in five an exact
// +0 or −0, and, when special is set, about one in ten ±Inf or NaN.
func fillOperand(x []float64, rng *rand.Rand, special bool) {
	for i := range x {
		switch r := rng.Intn(20); {
		case r < 2:
			x[i] = 0
		case r < 4:
			x[i] = math.Copysign(0, -1)
		case special && r == 4:
			x[i] = math.Inf(1)
		case special && r == 5:
			x[i] = math.Inf(-1)
		case special && r == 6:
			x[i] = math.NaN()
		default:
			x[i] = rng.NormFloat64()
		}
	}
}

// sameBits reports whether x and y have the same IEEE bit pattern, any
// NaN matching any NaN. Which NaN a sum of two NaNs yields is the
// hardware's pick of an operand (amd64 keeps the first), and Go leaves
// the operand order of a commutative add to its register allocator, so
// that payload can differ between two compilations of the same loop;
// everything else — the sign of a zero, an infinity, each finite bit —
// is fixed by the order of the operations.
func sameBits(x, y float64) bool {
	return math.Float64bits(x) == math.Float64bits(y) || (math.IsNaN(x) && math.IsNaN(y))
}

// TestMatMulGradKernelsMatchTextbook holds matmulGradA and matmulGradB
// to the textbook column loops bit for bit (sameBits, not values): k and
// m on and off multiples of four, single rows and columns, exact ±0
// gradients (which dA skips), ±Inf and NaN operands, and non-zero prior
// gradients that both must add to, not overwrite.
func TestMatMulGradKernelsMatchTextbook(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	shapes := []struct{ n, k, m int }{
		{1, 1, 1}, {1, 5, 1}, {3, 1, 7}, {1, 4, 4}, {2, 4, 4}, {5, 7, 3},
		{4, 9, 6}, {7, 3, 13}, {6, 13, 1}, {1, 64, 64}, {48, 64, 64}, {48, 16, 48},
	}
	for _, sh := range shapes {
		n, k, m := sh.n, sh.k, sh.m
		for _, special := range []bool{false, true} {
			a, b, g := make([]float64, n*k), make([]float64, k*m), make([]float64, n*m)
			prevA, prevB := make([]float64, n*k), make([]float64, k*m)
			for _, x := range [][]float64{a, b, g, prevA, prevB} {
				fillOperand(x, rng, special)
			}
			wantA, gotA := append([]float64(nil), prevA...), append([]float64(nil), prevA...)
			wantB, gotB := append([]float64(nil), prevB...), append([]float64(nil), prevB...)
			textbookGradA(wantA, g, b, n, k, m)
			matmulGradA(gotA, g, b, n, k, m)
			textbookGradB(wantB, a, g, n, k, m)
			acc := make([]float64, 4*m)
			fillOperand(acc, rng, true) // stale contents must not leak in
			matmulGradB(gotB, a, g, acc, n, k, m)
			for name, pair := range map[string][2][]float64{"dA": {gotA, wantA}, "dB": {gotB, wantB}} {
				for i := range pair[1] {
					if !sameBits(pair[0][i], pair[1][i]) {
						t.Fatalf("%s %dx%dx%d special=%v element %d: got %v (%#x), want %v (%#x)",
							name, n, k, m, special, i, pair[0][i], math.Float64bits(pair[0][i]),
							pair[1][i], math.Float64bits(pair[1][i]))
					}
				}
			}
		}
	}
}

// TestHotpathMatMulGradZeroAlloc locks in the //perf:hotpath contract of
// the backward kernels: the caller owns every buffer, the accumulator
// included, so neither kernel allocates.
func TestHotpathMatMulGradZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	a, b, g := Randn(16, 20, 1, rng), Randn(20, 18, 1, rng), Randn(16, 18, 1, rng)
	ag, bg, acc := make([]float64, 16*20), make([]float64, 20*18), make([]float64, 4*18)
	allocs := testing.AllocsPerRun(100, func() {
		matmulGradA(ag, g.Data, b.Data, 16, 20, 18)
		matmulGradB(bg, a.Data, g.Data, acc, 16, 20, 18)
	})
	if allocs != 0 {
		t.Fatalf("matmulGradA + matmulGradB allocated %v per call, want 0", allocs)
	}
}

// BenchmarkHotpathMatMulGrad measures one MatMul backward at the
// attention shape — a 48×64 activation times a 64×64 weight, dA and dB
// both, the dB accumulator owned by the caller.
func BenchmarkHotpathMatMulGrad(b *testing.B) {
	rng := rand.New(rand.NewSource(26))
	const n, k, m = 48, 64, 64
	x, w, g := Randn(n, k, 1, rng), Randn(k, m, 1, rng), Randn(n, m, 1, rng)
	xg, wg, acc := make([]float64, n*k), make([]float64, k*m), make([]float64, 4*m)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		matmulGradA(xg, g.Data, w.Data, n, k, m)
		matmulGradB(wg, x.Data, g.Data, acc, n, k, m)
	}
}
