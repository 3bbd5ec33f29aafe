package nn

import (
	"fmt"
	"math"
)

// MatMul returns a·b for a (n×k) and b (k×m).
func MatMul(a, b *Tensor) *Tensor {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("nn: MatMul %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	n, k, m := a.Rows, a.Cols, b.Cols
	out, taped := output(n, m, a, b)
	matmul(out.Data, a.Data, b.Data, n, k, m)
	if !taped {
		return out
	}
	out.back = func(t *Tensor) {
		// dA = dOut · Bᵀ ; dB = Aᵀ · dOut
		if a.inGraph() {
			a.ensureGrad()
			matmulGradA(a.Grad, t.Grad, b.Data, n, k, m)
		}
		if b.inGraph() {
			b.ensureGrad()
			matmulGradB(b.Grad, a.Data, t.Grad, make([]float64, 4*m), n, k, m)
		}
	}
	return out
}

// matmulGradA accumulates g·bᵀ into ag for g (n×m, the output gradient),
// b (k×m) and ag (n×k, a's gradient): MatMul's dA. Each ag[i,p] is its
// old value plus g[i,j]·b[p,j] for j ascending, exactly-zero g[i,j]
// skipped (0·x adds nothing to a finite sum) — the textbook loop's
// operations in its order. Four rows of b go per pass over a row of g,
// into four running sums held in registers, so every operand is read
// along its rows.
//
//perf:hotpath MatMul's dA; with dB, more than half of a training step
func matmulGradA(ag, g, b []float64, n, k, m int) {
	if k <= 0 || m <= 0 {
		return // no tensor has an empty side; this tells the prover the row widths are positive
	}
	ag, g = ag[:n*k], g[:n*m]
	for ; len(g) >= m && len(ag) >= k; g, ag = g[m:], ag[k:] {
		grow, arow := g[:m], ag[:k]
		bs := b
		for ; len(arow) >= 4; arow = arow[4:] {
			var b0, b1, b2, b3 []float64
			b0, b1, b2, b3, bs = rows4(bs, m)
			s0, s1, s2, s3 := arow[0], arow[1], arow[2], arow[3]
			for j, gv := range grow {
				//lint:ignore floatcompare sparsity fast path: skipping exactly-zero gradients is exact; a near-zero gradient just takes the slow path
				if gv == 0 {
					continue
				}
				s0 += gv * b0[j]
				s1 += gv * b1[j]
				s2 += gv * b2[j]
				s3 += gv * b3[j]
			}
			arow[0], arow[1], arow[2], arow[3] = s0, s1, s2, s3
		}
		for ; len(arow) > 0 && len(bs) >= m; arow, bs = arow[1:], bs[m:] {
			brow, s := bs[:m], arow[0]
			for j, gv := range grow {
				//lint:ignore floatcompare sparsity fast path: skipping exactly-zero gradients is exact; a near-zero gradient just takes the slow path
				if gv == 0 {
					continue
				}
				s += gv * brow[j]
			}
			arow[0] = s
		}
	}
}

// matmulGradB accumulates aᵀ·g into bg for a (n×k), g (n×m, the output
// gradient) and bg (k×m, b's gradient): MatMul's dB. Each bg[p,j] gets
// the sum of a[i,p]·g[i,j] over i ascending, started from +0 and added
// only once complete — the textbook loop's operations in its order. Four
// rows of bg are summed at a time into acc (caller-owned, at least 4·m
// long, contents ignored), so a, g and acc are all read along rows.
//
//perf:hotpath MatMul's dB; with dA, more than half of a training step
func matmulGradB(bg, a, g, acc []float64, n, k, m int) {
	if k <= 0 || m <= 0 {
		return // as in matmulGradA
	}
	a, g, acc = a[:n*k], g[:n*m], acc[:4*m]
	c0, c1, c2, c3, _ := rows4(acc, m)
	// ap starts at column p of a's first row; a's next row is k further on.
	p, ap, bs := 0, a, bg
	for ; p+4 <= k && len(ap) >= 4; p, ap = p+4, ap[4:] {
		clear(acc)
		for as, gs := ap, g; len(as) >= 4 && len(gs) >= m; gs = gs[m:] {
			x, grow := as[:4:4], gs[:m]
			x0, x1, x2, x3 := x[0], x[1], x[2], x[3]
			for j, gv := range grow {
				c0[j] += x0 * gv
				c1[j] += x1 * gv
				c2[j] += x2 * gv
				c3[j] += x3 * gv
			}
			if len(as) < k {
				break // a's last row
			}
			as = as[k:]
		}
		var b0, b1, b2, b3 []float64
		b0, b1, b2, b3, bs = rows4(bs, m)
		for j, v := range c0 {
			b0[j] += v
			b1[j] += c1[j]
			b2[j] += c2[j]
			b3[j] += c3[j]
		}
	}
	for ; p < k && len(ap) > 0 && len(bs) >= m; p, ap, bs = p+1, ap[1:], bs[m:] {
		clear(c0)
		for as, gs := ap, g; len(as) > 0 && len(gs) >= m; gs = gs[m:] {
			x0, grow := as[0], gs[:m]
			for j, gv := range grow {
				c0[j] += x0 * gv
			}
			if len(as) < k {
				break // a's last row
			}
			as = as[k:]
		}
		brow := bs[:m]
		for j, v := range c0 {
			brow[j] += v
		}
	}
}

// rows4 cuts four m-wide rows off the front of s. Its explicit length
// checks are what let the backward kernels index those rows unchecked.
func rows4(s []float64, m int) (r0, r1, r2, r3, rest []float64) {
	if len(s) < m {
		panic("nn: rows4 slice shorter than four rows")
	}
	r0, rest = s[:m], s[m:]
	if len(rest) < m {
		panic("nn: rows4 slice shorter than four rows")
	}
	r1, rest = rest[:m], rest[m:]
	if len(rest) < m {
		panic("nn: rows4 slice shorter than four rows")
	}
	r2, rest = rest[:m], rest[m:]
	if len(rest) < m {
		panic("nn: rows4 slice shorter than four rows")
	}
	r3, rest = rest[:m], rest[m:]
	return r0, r1, r2, r3, rest
}

// Add returns a + b elementwise (same shape).
func Add(a, b *Tensor) *Tensor {
	sameShape(a, b)
	out, taped := output(a.Rows, a.Cols, a, b)
	for i := range out.Data {
		out.Data[i] = a.Data[i] + b.Data[i]
	}
	if !taped {
		return out
	}
	out.back = func(t *Tensor) {
		if a.inGraph() {
			a.ensureGrad()
			for i, g := range t.Grad {
				a.Grad[i] += g
			}
		}
		if b.inGraph() {
			b.ensureGrad()
			for i, g := range t.Grad {
				b.Grad[i] += g
			}
		}
	}
	return out
}

// Sub returns a − b elementwise (same shape).
func Sub(a, b *Tensor) *Tensor {
	sameShape(a, b)
	out, taped := output(a.Rows, a.Cols, a, b)
	for i := range out.Data {
		out.Data[i] = a.Data[i] - b.Data[i]
	}
	if !taped {
		return out
	}
	out.back = func(t *Tensor) {
		if a.inGraph() {
			a.ensureGrad()
			for i, g := range t.Grad {
				a.Grad[i] += g
			}
		}
		if b.inGraph() {
			b.ensureGrad()
			for i, g := range t.Grad {
				b.Grad[i] -= g
			}
		}
	}
	return out
}

// Mul returns the Hadamard (elementwise) product.
func Mul(a, b *Tensor) *Tensor {
	sameShape(a, b)
	out, taped := output(a.Rows, a.Cols, a, b)
	for i := range out.Data {
		out.Data[i] = a.Data[i] * b.Data[i]
	}
	if !taped {
		return out
	}
	out.back = func(t *Tensor) {
		if a.inGraph() {
			a.ensureGrad()
			for i, g := range t.Grad {
				a.Grad[i] += g * b.Data[i]
			}
		}
		if b.inGraph() {
			b.ensureGrad()
			for i, g := range t.Grad {
				b.Grad[i] += g * a.Data[i]
			}
		}
	}
	return out
}

// AddRow broadcasts the 1×d row vector b onto every row of a (n×d).
func AddRow(a, b *Tensor) *Tensor {
	if b.Rows != 1 || b.Cols != a.Cols {
		panic(fmt.Sprintf("nn: AddRow %dx%d + %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out, taped := output(a.Rows, a.Cols, a, b)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			out.Data[i*a.Cols+j] = a.Data[i*a.Cols+j] + b.Data[j]
		}
	}
	if !taped {
		return out
	}
	out.back = func(t *Tensor) {
		if a.inGraph() {
			a.ensureGrad()
			for i, g := range t.Grad {
				a.Grad[i] += g
			}
		}
		if b.inGraph() {
			b.ensureGrad()
			for i := 0; i < a.Rows; i++ {
				for j := 0; j < a.Cols; j++ {
					b.Grad[j] += t.Grad[i*a.Cols+j]
				}
			}
		}
	}
	return out
}

// Scale returns s·a.
func Scale(a *Tensor, s float64) *Tensor {
	out, taped := output(a.Rows, a.Cols, a)
	for i := range out.Data {
		out.Data[i] = a.Data[i] * s
	}
	if !taped {
		return out
	}
	out.back = func(t *Tensor) {
		if a.inGraph() {
			a.ensureGrad()
			for i, g := range t.Grad {
				a.Grad[i] += g * s
			}
		}
	}
	return out
}

// AddScalar returns a + s elementwise.
func AddScalar(a *Tensor, s float64) *Tensor {
	out, taped := output(a.Rows, a.Cols, a)
	for i := range out.Data {
		out.Data[i] = a.Data[i] + s
	}
	if !taped {
		return out
	}
	out.back = func(t *Tensor) {
		if a.inGraph() {
			a.ensureGrad()
			for i, g := range t.Grad {
				a.Grad[i] += g
			}
		}
	}
	return out
}

// ReLU returns max(0, a) elementwise.
func ReLU(a *Tensor) *Tensor {
	out, taped := output(a.Rows, a.Cols, a)
	for i, v := range a.Data {
		if v > 0 {
			out.Data[i] = v
		}
	}
	if !taped {
		return out
	}
	out.back = func(t *Tensor) {
		if a.inGraph() {
			a.ensureGrad()
			for i, g := range t.Grad {
				if a.Data[i] > 0 {
					a.Grad[i] += g
				}
			}
		}
	}
	return out
}

// Tanh returns tanh(a) elementwise.
func Tanh(a *Tensor) *Tensor {
	out, taped := output(a.Rows, a.Cols, a)
	for i, v := range a.Data {
		out.Data[i] = math.Tanh(v)
	}
	if !taped {
		return out
	}
	out.back = func(t *Tensor) {
		if a.inGraph() {
			a.ensureGrad()
			for i, g := range t.Grad {
				y := t.Data[i]
				a.Grad[i] += g * (1 - y*y)
			}
		}
	}
	return out
}

// Sigmoid returns 1/(1+e^−a) elementwise.
func Sigmoid(a *Tensor) *Tensor {
	out, taped := output(a.Rows, a.Cols, a)
	for i, v := range a.Data {
		out.Data[i] = 1 / (1 + math.Exp(-v))
	}
	if !taped {
		return out
	}
	out.back = func(t *Tensor) {
		if a.inGraph() {
			a.ensureGrad()
			for i, g := range t.Grad {
				y := t.Data[i]
				a.Grad[i] += g * y * (1 - y)
			}
		}
	}
	return out
}

// Exp returns e^a elementwise.
func Exp(a *Tensor) *Tensor {
	out, taped := output(a.Rows, a.Cols, a)
	for i, v := range a.Data {
		out.Data[i] = math.Exp(v)
	}
	if !taped {
		return out
	}
	out.back = func(t *Tensor) {
		if a.inGraph() {
			a.ensureGrad()
			for i, g := range t.Grad {
				a.Grad[i] += g * t.Data[i]
			}
		}
	}
	return out
}

// Log returns ln(a + eps) elementwise; eps keeps the gradient finite at 0.
func Log(a *Tensor, eps float64) *Tensor {
	out, taped := output(a.Rows, a.Cols, a)
	for i, v := range a.Data {
		out.Data[i] = math.Log(v + eps)
	}
	if !taped {
		return out
	}
	out.back = func(t *Tensor) {
		if a.inGraph() {
			a.ensureGrad()
			for i, g := range t.Grad {
				a.Grad[i] += g / (a.Data[i] + eps)
			}
		}
	}
	return out
}

// Square returns a² elementwise.
func Square(a *Tensor) *Tensor {
	out, taped := output(a.Rows, a.Cols, a)
	for i, v := range a.Data {
		out.Data[i] = v * v
	}
	if !taped {
		return out
	}
	out.back = func(t *Tensor) {
		if a.inGraph() {
			a.ensureGrad()
			for i, g := range t.Grad {
				a.Grad[i] += g * 2 * a.Data[i]
			}
		}
	}
	return out
}

// Sqrt returns sqrt(a + eps) elementwise; eps keeps the gradient finite at 0.
func Sqrt(a *Tensor, eps float64) *Tensor {
	out, taped := output(a.Rows, a.Cols, a)
	for i, v := range a.Data {
		out.Data[i] = math.Sqrt(v + eps)
	}
	if !taped {
		return out
	}
	out.back = func(t *Tensor) {
		if a.inGraph() {
			a.ensureGrad()
			for i, g := range t.Grad {
				a.Grad[i] += g * 0.5 / t.Data[i]
			}
		}
	}
	return out
}

// SumAll reduces to a 1×1 scalar.
func SumAll(a *Tensor) *Tensor {
	out, taped := output(1, 1, a)
	var s float64
	for _, v := range a.Data {
		s += v
	}
	out.Data[0] = s
	if !taped {
		return out
	}
	out.back = func(t *Tensor) {
		if a.inGraph() {
			a.ensureGrad()
			g := t.Grad[0]
			for i := range a.Grad {
				a.Grad[i] += g
			}
		}
	}
	return out
}

// MeanAll reduces to the 1×1 mean.
func MeanAll(a *Tensor) *Tensor {
	n := float64(len(a.Data))
	out, taped := output(1, 1, a)
	var s float64
	for _, v := range a.Data {
		s += v
	}
	out.Data[0] = s / n
	if !taped {
		return out
	}
	out.back = func(t *Tensor) {
		if a.inGraph() {
			a.ensureGrad()
			g := t.Grad[0] / n
			for i := range a.Grad {
				a.Grad[i] += g
			}
		}
	}
	return out
}

// MeanRows returns the 1×d column-wise mean of an n×d tensor — the Mean
// pooling of Equation 9.
func MeanRows(a *Tensor) *Tensor {
	n := float64(a.Rows)
	out, taped := output(1, a.Cols, a)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			out.Data[j] += a.Data[i*a.Cols+j]
		}
	}
	for j := range out.Data {
		out.Data[j] /= n
	}
	if !taped {
		return out
	}
	out.back = func(t *Tensor) {
		if a.inGraph() {
			a.ensureGrad()
			for i := 0; i < a.Rows; i++ {
				for j := 0; j < a.Cols; j++ {
					a.Grad[i*a.Cols+j] += t.Grad[j] / n
				}
			}
		}
	}
	return out
}

// RowSums returns the n×1 per-row sums of an n×d tensor.
func RowSums(a *Tensor) *Tensor {
	out, taped := output(a.Rows, 1, a)
	for i := 0; i < a.Rows; i++ {
		var s float64
		for j := 0; j < a.Cols; j++ {
			s += a.Data[i*a.Cols+j]
		}
		out.Data[i] = s
	}
	if !taped {
		return out
	}
	out.back = func(t *Tensor) {
		if a.inGraph() {
			a.ensureGrad()
			for i := 0; i < a.Rows; i++ {
				g := t.Grad[i]
				for j := 0; j < a.Cols; j++ {
					a.Grad[i*a.Cols+j] += g
				}
			}
		}
	}
	return out
}

// DivByColumn divides each row i of a (n×d) by c[i] (n×1).
func DivByColumn(a, c *Tensor) *Tensor {
	if c.Rows != a.Rows || c.Cols != 1 {
		panic(fmt.Sprintf("nn: DivByColumn %dx%d / %dx%d", a.Rows, a.Cols, c.Rows, c.Cols))
	}
	out, taped := output(a.Rows, a.Cols, a, c)
	for i := 0; i < a.Rows; i++ {
		inv := 1 / c.Data[i]
		for j := 0; j < a.Cols; j++ {
			out.Data[i*a.Cols+j] = a.Data[i*a.Cols+j] * inv
		}
	}
	if !taped {
		return out
	}
	out.back = func(t *Tensor) {
		if a.inGraph() {
			a.ensureGrad()
			for i := 0; i < a.Rows; i++ {
				inv := 1 / c.Data[i]
				for j := 0; j < a.Cols; j++ {
					a.Grad[i*a.Cols+j] += t.Grad[i*a.Cols+j] * inv
				}
			}
		}
		if c.inGraph() {
			c.ensureGrad()
			for i := 0; i < a.Rows; i++ {
				inv2 := 1 / (c.Data[i] * c.Data[i])
				var s float64
				for j := 0; j < a.Cols; j++ {
					s += t.Grad[i*a.Cols+j] * a.Data[i*a.Cols+j]
				}
				c.Grad[i] -= s * inv2
			}
		}
	}
	return out
}

// SoftmaxRows applies softmax independently to each row.
func SoftmaxRows(a *Tensor) *Tensor {
	out, taped := output(a.Rows, a.Cols, a)
	for i := 0; i < a.Rows; i++ {
		row := a.Data[i*a.Cols : (i+1)*a.Cols]
		orow := out.Data[i*a.Cols : (i+1)*a.Cols]
		maxV := math.Inf(-1)
		for _, v := range row {
			if v > maxV {
				maxV = v
			}
		}
		var sum float64
		for j, v := range row {
			e := math.Exp(v - maxV)
			orow[j] = e
			sum += e
		}
		for j := range orow {
			orow[j] /= sum
		}
	}
	if !taped {
		return out
	}
	out.back = func(t *Tensor) {
		if a.inGraph() {
			a.ensureGrad()
			for i := 0; i < a.Rows; i++ {
				row := t.Data[i*a.Cols : (i+1)*a.Cols]
				grow := t.Grad[i*a.Cols : (i+1)*a.Cols]
				// dL/dx_j = y_j * (g_j - sum_k g_k y_k)
				var dot float64
				for j, y := range row {
					dot += grow[j] * y
				}
				for j, y := range row {
					a.Grad[i*a.Cols+j] += y * (grow[j] - dot)
				}
			}
		}
	}
	return out
}

// Transpose returns aᵀ.
func Transpose(a *Tensor) *Tensor {
	out, taped := output(a.Cols, a.Rows, a)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			out.Data[j*a.Rows+i] = a.Data[i*a.Cols+j]
		}
	}
	if !taped {
		return out
	}
	out.back = func(t *Tensor) {
		if a.inGraph() {
			a.ensureGrad()
			for i := 0; i < a.Rows; i++ {
				for j := 0; j < a.Cols; j++ {
					a.Grad[i*a.Cols+j] += t.Grad[j*a.Rows+i]
				}
			}
		}
	}
	return out
}

// ConcatCols concatenates tensors with equal row counts side by side — the
// [h, h_r] of Lemma 3 and Equation 15.
func ConcatCols(ts ...*Tensor) *Tensor {
	if len(ts) == 0 {
		panic("nn: ConcatCols of nothing")
	}
	rows := ts[0].Rows
	total := 0
	for _, t := range ts {
		if t.Rows != rows {
			panic("nn: ConcatCols row mismatch")
		}
		total += t.Cols
	}
	out, taped := output(rows, total, ts...)
	off := 0
	for _, p := range ts {
		for i := 0; i < rows; i++ {
			copy(out.Data[i*total+off:i*total+off+p.Cols], p.Data[i*p.Cols:(i+1)*p.Cols])
		}
		off += p.Cols
	}
	if !taped {
		return out
	}
	parts := append([]*Tensor(nil), ts...) // copied here so ts itself never escapes
	out.back = func(t *Tensor) {
		off := 0
		for _, p := range parts {
			if p.inGraph() {
				p.ensureGrad()
				for i := 0; i < rows; i++ {
					for j := 0; j < p.Cols; j++ {
						p.Grad[i*p.Cols+j] += t.Grad[i*total+off+j]
					}
				}
			}
			off += p.Cols
		}
	}
	return out
}

// ConcatRows stacks tensors with equal column counts vertically.
func ConcatRows(ts ...*Tensor) *Tensor {
	if len(ts) == 0 {
		panic("nn: ConcatRows of nothing")
	}
	cols := ts[0].Cols
	total := 0
	for _, t := range ts {
		if t.Cols != cols {
			panic("nn: ConcatRows col mismatch")
		}
		total += t.Rows
	}
	out, taped := output(total, cols, ts...)
	off := 0
	for _, p := range ts {
		copy(out.Data[off:off+len(p.Data)], p.Data)
		off += len(p.Data)
	}
	if !taped {
		return out
	}
	parts := append([]*Tensor(nil), ts...) // copied here so ts itself never escapes
	out.back = func(t *Tensor) {
		off := 0
		for _, p := range parts {
			if p.inGraph() {
				p.ensureGrad()
				for i := range p.Grad {
					p.Grad[i] += t.Grad[off+i]
				}
			}
			off += len(p.Data)
		}
	}
	return out
}

// SliceRows returns rows [lo, hi) as a new (hi−lo)×cols tensor.
func SliceRows(a *Tensor, lo, hi int) *Tensor {
	if lo < 0 || hi > a.Rows || lo >= hi {
		panic(fmt.Sprintf("nn: SliceRows [%d,%d) of %d rows", lo, hi, a.Rows))
	}
	out, taped := output(hi-lo, a.Cols, a)
	copy(out.Data, a.Data[lo*a.Cols:hi*a.Cols])
	if !taped {
		return out
	}
	out.back = func(t *Tensor) {
		if a.inGraph() {
			a.ensureGrad()
			for i := range t.Grad {
				a.Grad[lo*a.Cols+i] += t.Grad[i]
			}
		}
	}
	return out
}

// SliceCols returns columns [lo, hi) as a new rows×(hi−lo) tensor — used to
// split attention heads.
func SliceCols(a *Tensor, lo, hi int) *Tensor {
	if lo < 0 || hi > a.Cols || lo >= hi {
		panic(fmt.Sprintf("nn: SliceCols [%d,%d) of %d cols", lo, hi, a.Cols))
	}
	w := hi - lo
	out, taped := output(a.Rows, w, a)
	for i := 0; i < a.Rows; i++ {
		copy(out.Data[i*w:(i+1)*w], a.Data[i*a.Cols+lo:i*a.Cols+hi])
	}
	if !taped {
		return out
	}
	out.back = func(t *Tensor) {
		if a.inGraph() {
			a.ensureGrad()
			for i := 0; i < a.Rows; i++ {
				for j := 0; j < w; j++ {
					a.Grad[i*a.Cols+lo+j] += t.Grad[i*w+j]
				}
			}
		}
	}
	return out
}

// Gather returns the rows of table indexed by idx, in order — an embedding
// lookup. Backward scatter-adds into the table.
func Gather(table *Tensor, idx []int) *Tensor {
	for _, i := range idx {
		if i < 0 || i >= table.Rows {
			panic(fmt.Sprintf("nn: Gather index %d out of [0,%d)", i, table.Rows))
		}
	}
	d := table.Cols
	out, taped := output(len(idx), d, table)
	for r, i := range idx {
		copy(out.Data[r*d:(r+1)*d], table.Data[i*d:(i+1)*d])
	}
	if !taped {
		return out
	}
	out.back = func(t *Tensor) {
		if table.inGraph() {
			table.ensureGrad()
			for r, i := range idx {
				for j := 0; j < d; j++ {
					table.Grad[i*d+j] += t.Grad[r*d+j]
				}
			}
		}
	}
	return out
}

// Dot returns the 1×1 inner product of two equal-shape tensors (flattened).
func Dot(a, b *Tensor) *Tensor {
	sameShape(a, b)
	out, taped := output(1, 1, a, b)
	var s float64
	for i := range a.Data {
		s += a.Data[i] * b.Data[i]
	}
	out.Data[0] = s
	if !taped {
		return out
	}
	out.back = func(t *Tensor) {
		g := t.Grad[0]
		if a.inGraph() {
			a.ensureGrad()
			for i := range a.Grad {
				a.Grad[i] += g * b.Data[i]
			}
		}
		if b.inGraph() {
			b.ensureGrad()
			for i := range b.Grad {
				b.Grad[i] += g * a.Data[i]
			}
		}
	}
	return out
}

// EuclideanDistance returns the 1×1 Euclidean distance between two
// equal-shape tensors, with an eps inside the square root so the gradient is
// finite at zero distance.
func EuclideanDistance(a, b *Tensor) *Tensor {
	diff := Sub(a, b)
	return Sqrt(SumAll(Square(diff)), 1e-12)
}

// HingeScalar returns max(0, x) for a 1×1 tensor — the [x]+ of Equation 18.
func HingeScalar(x *Tensor) *Tensor {
	return ReLU(x)
}
