package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// Embedding is a trainable lookup table mapping integer ids to d-dim rows.
type Embedding struct {
	Table *Tensor // vocab×d
}

// NewEmbedding returns an embedding table initialized N(0, 0.1²).
func NewEmbedding(vocab, d int, rng *rand.Rand) *Embedding {
	t := Randn(vocab, d, 0.1, rng)
	t.requiresGrad = true
	return &Embedding{Table: t}
}

// Forward looks up the ids, returning len(ids)×d.
func (e *Embedding) Forward(ids []int) *Tensor { return Gather(e.Table, ids) }

// Params implements Module; a frozen table contributes nothing.
func (e *Embedding) Params() []*Tensor {
	if !e.Table.RequiresGrad() {
		return nil
	}
	return []*Tensor{e.Table}
}

// PositionalEncoding precomputes the sinusoidal position embeddings of
// Equation 8:
//
//	s_i(2k)   = sin(i / 10000^{2k/d})
//	s_i(2k+1) = cos(i / 10000^{2k/d})
type PositionalEncoding struct {
	table *Tensor // maxLen×d, constant (no gradient)
	d     int
}

// NewPositionalEncoding precomputes encodings for positions [0, maxLen).
func NewPositionalEncoding(maxLen, d int) *PositionalEncoding {
	t := New(maxLen, d)
	for i := 0; i < maxLen; i++ {
		for k := 0; 2*k < d; k++ {
			freq := math.Pow(10000, float64(2*k)/float64(d))
			t.Set(i, 2*k, math.Sin(float64(i)/freq))
			if 2*k+1 < d {
				t.Set(i, 2*k+1, math.Cos(float64(i)/freq))
			}
		}
	}
	return &PositionalEncoding{table: t, d: d}
}

// Add returns x + s for the first x.Rows positions. Positions beyond the
// precomputed horizon wrap around, which keeps very long inputs working
// (they are rare: trajectories are resampled/truncated upstream).
func (p *PositionalEncoding) Add(x *Tensor) *Tensor {
	if x.Cols != p.d {
		panic(fmt.Sprintf("nn: PositionalEncoding of width %d added to %dx%d", p.d, x.Rows, x.Cols))
	}
	out, taped := output(x.Rows, x.Cols, x)
	d := p.d
	for i := 0; i < x.Rows; i++ {
		pos := p.table.Data[(i%p.table.Rows)*d:][:d]
		xrow, orow := x.Data[i*d:][:d], out.Data[i*d:][:d]
		for j, s := range pos {
			orow[j] = xrow[j] + s
		}
	}
	if !taped {
		return out
	}
	out.back = func(t *Tensor) {
		// The encodings are constants: the gradient passes straight to x.
		x.ensureGrad()
		for i, g := range t.Grad {
			x.Grad[i] += g
		}
	}
	return out
}
