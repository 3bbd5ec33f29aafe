package nn

import (
	"math"
	"math/rand"
)

// Module is anything with trainable parameters.
type Module interface {
	// Params returns the trainable parameter tensors in a stable order.
	Params() []*Tensor
}

// CollectParams concatenates the parameters of several modules.
func CollectParams(ms ...Module) []*Tensor {
	var out []*Tensor
	for _, m := range ms {
		out = append(out, m.Params()...)
	}
	return out
}

// Linear is a fully connected layer y = x·W + b.
type Linear struct {
	W *Tensor // in×out
	B *Tensor // 1×out
}

// NewLinear returns a Xavier-initialized linear layer.
func NewLinear(in, out int, rng *rand.Rand) *Linear {
	b := NewParam(1, out)
	return &Linear{W: XavierParam(in, out, rng), B: b}
}

// Forward applies the layer to x (n×in).
func (l *Linear) Forward(x *Tensor) *Tensor {
	mark := x.scratch.Mark()
	return mark.Keep(AddRow(MatMul(x, l.W), l.B))
}

// Params implements Module.
func (l *Linear) Params() []*Tensor { return []*Tensor{l.W, l.B} }

// MLP is a stack of linear layers with ReLU between them (none after the
// last). The paper's MLP_g and MLP^k are two-layer instances (Equations 9
// and 11); MLP_e is a one-layer instance (Equation 10).
type MLP struct {
	Layers []*Linear
}

// NewMLP builds an MLP with the given layer sizes, e.g. NewMLP(rng, 64, 128,
// 64) is a two-layer network 64→128→64.
func NewMLP(rng *rand.Rand, sizes ...int) *MLP {
	if len(sizes) < 2 {
		panic("nn: NewMLP needs at least input and output sizes")
	}
	m := &MLP{}
	for i := 0; i+1 < len(sizes); i++ {
		m.Layers = append(m.Layers, NewLinear(sizes[i], sizes[i+1], rng))
	}
	return m
}

// Forward applies the stack with ReLU between layers.
func (m *MLP) Forward(x *Tensor) *Tensor {
	for i, l := range m.Layers {
		x = l.Forward(x)
		if i+1 < len(m.Layers) {
			x = ReLU(x)
		}
	}
	return x
}

// Params implements Module.
func (m *MLP) Params() []*Tensor {
	var out []*Tensor
	for _, l := range m.Layers {
		out = append(out, l.Params()...)
	}
	return out
}

// LayerNorm normalizes each row to zero mean and unit variance, then applies
// a learned affine transform γ, β.
type LayerNorm struct {
	Gamma *Tensor // 1×d
	Beta  *Tensor // 1×d
	Eps   float64
}

// NewLayerNorm returns a LayerNorm over d features with γ=1, β=0.
func NewLayerNorm(d int) *LayerNorm {
	g := NewParam(1, d)
	for i := range g.Data {
		g.Data[i] = 1
	}
	return &LayerNorm{Gamma: g, Beta: NewParam(1, d), Eps: 1e-5}
}

// Forward normalizes x row-wise.
func (ln *LayerNorm) Forward(x *Tensor) *Tensor {
	n, d := x.Rows, x.Cols
	df := float64(d)
	gamma, beta := ln.Gamma, ln.Beta
	out, taped := output(n, d, x, gamma, beta)
	// The backward pass needs x̂ and the per-row inverse std; a tape-free
	// pass keeps neither.
	var invStd, xhat []float64
	if taped {
		invStd = make([]float64, n)
		xhat = make([]float64, n*d)
	}
	for i := 0; i < n; i++ {
		row := x.Data[i*d : (i+1)*d]
		orow := out.Data[i*d : (i+1)*d]
		var mu float64
		for _, v := range row {
			mu += v
		}
		mu /= df
		var vr float64
		for _, v := range row {
			dv := v - mu
			vr += dv * dv
		}
		vr /= df
		inv := 1 / math.Sqrt(vr+ln.Eps)
		for j, v := range row {
			xh := (v - mu) * inv
			orow[j] = xh*gamma.Data[j] + beta.Data[j]
			if taped {
				xhat[i*d+j] = xh
			}
		}
		if taped {
			invStd[i] = inv
		}
	}
	if !taped {
		return out
	}
	out.back = func(t *Tensor) {
		if gamma.inGraph() {
			gamma.ensureGrad()
			for i := 0; i < n; i++ {
				for j := 0; j < d; j++ {
					gamma.Grad[j] += t.Grad[i*d+j] * xhat[i*d+j]
				}
			}
		}
		if beta.inGraph() {
			beta.ensureGrad()
			for i := 0; i < n; i++ {
				for j := 0; j < d; j++ {
					beta.Grad[j] += t.Grad[i*d+j]
				}
			}
		}
		if x.inGraph() {
			x.ensureGrad()
			for i := 0; i < n; i++ {
				// dxhat_j = g_j * gamma_j
				var sumD, sumDX float64
				dxhat := make([]float64, d)
				for j := 0; j < d; j++ {
					dxhat[j] = t.Grad[i*d+j] * gamma.Data[j]
					sumD += dxhat[j]
					sumDX += dxhat[j] * xhat[i*d+j]
				}
				for j := 0; j < d; j++ {
					x.Grad[i*d+j] += invStd[i] * (dxhat[j] - sumD/df - xhat[i*d+j]*sumDX/df)
				}
			}
		}
	}
	return out
}

// Params implements Module.
func (ln *LayerNorm) Params() []*Tensor { return []*Tensor{ln.Gamma, ln.Beta} }
