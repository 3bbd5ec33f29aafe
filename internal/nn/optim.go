package nn

import (
	"fmt"
	"math"
)

// Adam is the Adam optimizer [Kingma & Ba], the paper's choice (Section
// IV-F: "employ the Adam optimizer for the update of parameters").
type Adam struct {
	Params []*Tensor
	LR     float64
	Beta1  float64
	Beta2  float64
	Eps    float64

	t int
	m [][]float64
	v [][]float64
}

// NewAdam returns Adam with the conventional β1=0.9, β2=0.999, ε=1e-8.
func NewAdam(params []*Tensor, lr float64) *Adam {
	a := &Adam{Params: params, LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
	a.m = make([][]float64, len(params))
	a.v = make([][]float64, len(params))
	for i, p := range params {
		a.m[i] = make([]float64, len(p.Data))
		a.v[i] = make([]float64, len(p.Data))
	}
	return a
}

// Step applies one update and clears the gradients.
func (a *Adam) Step() {
	a.t++
	c1 := 1 - math.Pow(a.Beta1, float64(a.t))
	c2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for i, p := range a.Params {
		if p.Grad == nil {
			continue
		}
		m, v := a.m[i], a.v[i]
		for j := range p.Data {
			g := p.Grad[j]
			m[j] = a.Beta1*m[j] + (1-a.Beta1)*g
			v[j] = a.Beta2*v[j] + (1-a.Beta2)*g*g
			mh := m[j] / c1
			vh := v[j] / c2
			p.Data[j] -= a.LR * mh / (math.Sqrt(vh) + a.Eps)
		}
		p.ZeroGrad()
	}
}

// State returns the optimizer's step counter and first/second moment
// estimates as deep copies, in Params order — the optimizer half of a
// training checkpoint (core.Checkpoint). Restoring it with SetState
// resumes the exact bias-correction schedule and per-weight adaptivity
// an uninterrupted run would have had.
func (a *Adam) State() (t int, m, v [][]float64) {
	m = make([][]float64, len(a.m))
	v = make([][]float64, len(a.v))
	for i := range a.m {
		m[i] = append([]float64(nil), a.m[i]...)
		v[i] = append([]float64(nil), a.v[i]...)
	}
	return a.t, m, v
}

// SetState restores a step counter and moment estimates captured by
// State. The moment slices must match the optimizer's parameters in
// count and length; the data is copied in, so the caller keeps ownership.
func (a *Adam) SetState(t int, m, v [][]float64) error {
	if len(m) != len(a.Params) || len(v) != len(a.Params) {
		return fmt.Errorf("nn: adam state has %d/%d moment vectors, optimizer has %d params",
			len(m), len(v), len(a.Params))
	}
	for i, p := range a.Params {
		if len(m[i]) != len(p.Data) || len(v[i]) != len(p.Data) {
			return fmt.Errorf("nn: adam state param %d has %d/%d moments, want %d",
				i, len(m[i]), len(v[i]), len(p.Data))
		}
	}
	a.t = t
	for i := range m {
		copy(a.m[i], m[i])
		copy(a.v[i], v[i])
	}
	return nil
}

// ClipGradNorm rescales all gradients so their global L2 norm does not
// exceed maxNorm; returns the pre-clip norm. Guards RNN training against
// exploding gradients.
func ClipGradNorm(params []*Tensor, maxNorm float64) float64 {
	var total float64
	for _, p := range params {
		for _, g := range p.Grad {
			total += g * g
		}
	}
	norm := math.Sqrt(total)
	if norm > maxNorm && norm > 0 {
		scale := maxNorm / norm
		for _, p := range params {
			for j := range p.Grad {
				p.Grad[j] *= scale
			}
		}
	}
	return norm
}
