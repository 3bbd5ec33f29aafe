package nn

import "math/rand"

// GRUCell is a gated recurrent unit cell, the recurrent encoder used by the
// NeuTraj, t2vec, and CL-TSim baselines:
//
//	z = σ(x·Wz + h·Uz + bz)
//	r = σ(x·Wr + h·Ur + br)
//	ĥ = tanh(x·Wh + (r⊙h)·Uh + bh)
//	h' = (1−z)⊙h + z⊙ĥ
type GRUCell struct {
	Wz, Wr, Wh *Tensor // in×hidden
	Uz, Ur, Uh *Tensor // hidden×hidden
	Bz, Br, Bh *Tensor // 1×hidden
	In, Hidden int
}

// NewGRUCell returns a Xavier-initialized GRU cell.
func NewGRUCell(in, hidden int, rng *rand.Rand) *GRUCell {
	return &GRUCell{
		Wz: XavierParam(in, hidden, rng), Wr: XavierParam(in, hidden, rng), Wh: XavierParam(in, hidden, rng),
		Uz: XavierParam(hidden, hidden, rng), Ur: XavierParam(hidden, hidden, rng), Uh: XavierParam(hidden, hidden, rng),
		Bz: NewParam(1, hidden), Br: NewParam(1, hidden), Bh: NewParam(1, hidden),
		In: in, Hidden: hidden,
	}
}

// Step advances the cell: x is 1×in, h is 1×hidden; returns the new hidden
// state (1×hidden).
func (c *GRUCell) Step(x, h *Tensor) *Tensor {
	z := Sigmoid(Add(Add(MatMul(x, c.Wz), MatMul(h, c.Uz)), c.Bz))
	r := Sigmoid(Add(Add(MatMul(x, c.Wr), MatMul(h, c.Ur)), c.Br))
	hc := Tanh(Add(Add(MatMul(x, c.Wh), MatMul(Mul(r, h), c.Uh)), c.Bh))
	// h' = (1−z)⊙h + z⊙ĥ
	oneMinusZ := AddScalar(Scale(z, -1), 1)
	return Add(Mul(oneMinusZ, h), Mul(z, hc))
}

// Final runs the sequence and returns only the last hidden state (1×hidden)
// — the read-out NeuTraj and its variants use. The initial state lives
// where x does, so an x on a Scratch makes the whole recurrence tape-free,
// each step releasing its intermediates.
func (c *GRUCell) Final(x *Tensor) *Tensor {
	h := x.scratch.New(1, c.Hidden)
	for i := 0; i < x.Rows; i++ {
		mark := x.scratch.Mark()
		h = mark.Keep(c.Step(SliceRows(x, i, i+1), h))
	}
	return h
}

// Params implements Module.
func (c *GRUCell) Params() []*Tensor {
	return []*Tensor{c.Wz, c.Wr, c.Wh, c.Uz, c.Ur, c.Uh, c.Bz, c.Br, c.Bh}
}
