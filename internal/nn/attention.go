package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// MultiHeadAttention is the self-attention of Equation 12 with the
// multi-head strategy of [46]: projections W_q, W_k, W_v (d×d), per-head
// scaled dot-product attention, concatenation, and an output projection.
type MultiHeadAttention struct {
	Wq, Wk, Wv, Wo *Linear
	Heads          int
	dim            int
}

// NewMultiHeadAttention returns an attention layer over d-dimensional
// inputs with the given number of heads; d must be divisible by heads.
func NewMultiHeadAttention(d, heads int, rng *rand.Rand) *MultiHeadAttention {
	if d%heads != 0 {
		panic(fmt.Sprintf("nn: dim %d not divisible by %d heads", d, heads))
	}
	return &MultiHeadAttention{
		Wq:    NewLinear(d, d, rng),
		Wk:    NewLinear(d, d, rng),
		Wv:    NewLinear(d, d, rng),
		Wo:    NewLinear(d, d, rng),
		Heads: heads,
		dim:   d,
	}
}

// Forward applies self-attention to x (n×d), returning n×d.
func (a *MultiHeadAttention) Forward(x *Tensor) *Tensor {
	mark := x.scratch.Mark()
	q := a.Wq.Forward(x)
	k := a.Wk.Forward(x)
	v := a.Wv.Forward(x)
	dk := a.dim / a.Heads
	scale := 1 / math.Sqrt(float64(dk))
	heads := make([]*Tensor, a.Heads)
	for h := 0; h < a.Heads; h++ {
		headMark := x.scratch.Mark()
		lo, hi := h*dk, (h+1)*dk
		qh := SliceCols(q, lo, hi)
		kh := SliceCols(k, lo, hi)
		vh := SliceCols(v, lo, hi)
		scores := Scale(MatMul(qh, Transpose(kh)), scale)
		w := SoftmaxRows(scores)
		heads[h] = headMark.Keep(MatMul(w, vh))
	}
	return mark.Keep(a.Wo.Forward(ConcatCols(heads...)))
}

// Params implements Module.
func (a *MultiHeadAttention) Params() []*Tensor {
	return CollectParams(a.Wq, a.Wk, a.Wv, a.Wo)
}

// EncoderBlock is one Attention-MLP block with residual connections
// (Equations 11–12): x ← x + Attn(x); x ← x + MLP(x). An optional LayerNorm
// after each residual stabilizes deeper stacks (pre-norm is unnecessary at
// m=2 but the paper's Transformer baseline conventionally uses norms).
type EncoderBlock struct {
	Attn *MultiHeadAttention
	FF   *MLP
	LN1  *LayerNorm // nil disables normalization
	LN2  *LayerNorm
}

// NewEncoderBlock builds one block over d-dim inputs with the given head
// count and a two-layer feed-forward of hidden size ffHidden. useNorm adds
// LayerNorm after each residual.
func NewEncoderBlock(d, heads, ffHidden int, useNorm bool, rng *rand.Rand) *EncoderBlock {
	b := &EncoderBlock{
		Attn: NewMultiHeadAttention(d, heads, rng),
		FF:   NewMLP(rng, d, ffHidden, d),
	}
	if useNorm {
		b.LN1 = NewLayerNorm(d)
		b.LN2 = NewLayerNorm(d)
	}
	return b
}

// Forward applies the block to x (n×d).
func (b *EncoderBlock) Forward(x *Tensor) *Tensor {
	mark := x.scratch.Mark()
	h := Add(x, b.Attn.Forward(x))
	if b.LN1 != nil {
		h = b.LN1.Forward(h)
	}
	h = Add(h, b.FF.Forward(h))
	if b.LN2 != nil {
		h = b.LN2.Forward(h)
	}
	return mark.Keep(h)
}

// Params implements Module.
func (b *EncoderBlock) Params() []*Tensor {
	out := CollectParams(b.Attn, b.FF)
	if b.LN1 != nil {
		out = append(out, b.LN1.Params()...)
	}
	if b.LN2 != nil {
		out = append(out, b.LN2.Params()...)
	}
	return out
}
