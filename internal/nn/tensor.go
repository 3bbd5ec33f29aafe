// Package nn is a small, stdlib-only deep-learning framework: dense 2-D
// tensors with reverse-mode automatic differentiation, the layers needed by
// the paper's models (linear, MLP, multi-head self-attention, GRU,
// embeddings, positional encoding, layer normalization) and the Adam
// optimizer.
//
// It substitutes for the PyTorch substrate the paper trains on (Section
// V-A6): the arithmetic of every forward and backward pass is the standard
// one, verified against central finite differences in the package tests.
//
// Tensors are row-major matrices. Operations build a computation graph on
// the fly; calling Backward on a scalar output propagates gradients to every
// tensor created with requiresGrad (parameters) or reached through them.
package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// Tensor is a row-major matrix node in a computation graph.
type Tensor struct {
	Rows, Cols int
	Data       []float64
	Grad       []float64 // allocated lazily during Backward

	requiresGrad bool
	parents      []*Tensor
	// back propagates t.Grad into the parents' Grad slices.
	back func(t *Tensor)
	// scratch is non-nil for tensors of a tape-free forward pass: it owns
	// their storage, and ops consuming them allocate from it and record
	// nothing (see infer.go).
	scratch *Scratch
}

// New returns an uninitialized (zero) tensor of the given shape.
func New(rows, cols int) *Tensor {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("nn: invalid shape %dx%d", rows, cols))
	}
	return &Tensor{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromSlice wraps data (not copied) as a rows×cols tensor.
func FromSlice(rows, cols int, data []float64) *Tensor {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("nn: data length %d != %d*%d", len(data), rows, cols))
	}
	return &Tensor{Rows: rows, Cols: cols, Data: data}
}

// FromVec wraps a slice as a 1×n row vector (not copied).
func FromVec(v []float64) *Tensor { return FromSlice(1, len(v), v) }

// NewParam returns a zero tensor flagged as a trainable parameter.
func NewParam(rows, cols int) *Tensor {
	t := New(rows, cols)
	t.requiresGrad = true
	return t
}

// Randn fills and returns a new tensor with N(0, std²) entries.
func Randn(rows, cols int, std float64, rng *rand.Rand) *Tensor {
	t := New(rows, cols)
	for i := range t.Data {
		t.Data[i] = rng.NormFloat64() * std
	}
	return t
}

// XavierParam returns a parameter initialized with Xavier/Glorot scaling,
// std = sqrt(2/(fanIn+fanOut)).
func XavierParam(rows, cols int, rng *rand.Rand) *Tensor {
	std := math.Sqrt(2.0 / float64(rows+cols))
	t := Randn(rows, cols, std, rng)
	t.requiresGrad = true
	return t
}

// At returns element (i, j).
func (t *Tensor) At(i, j int) float64 { return t.Data[i*t.Cols+j] }

// Set assigns element (i, j).
func (t *Tensor) Set(i, j int, v float64) { t.Data[i*t.Cols+j] = v }

// Scalar returns the single element of a 1×1 tensor.
func (t *Tensor) Scalar() float64 {
	if t.Rows != 1 || t.Cols != 1 {
		panic(fmt.Sprintf("nn: Scalar on %dx%d tensor", t.Rows, t.Cols))
	}
	return t.Data[0]
}

// RequiresGrad reports whether the tensor is a leaf parameter.
func (t *Tensor) RequiresGrad() bool { return t.requiresGrad }

// SetRequiresGrad marks or unmarks the tensor as a trainable leaf.
func (t *Tensor) SetRequiresGrad(v bool) { t.requiresGrad = v }

// inGraph reports whether gradients must flow through t.
func (t *Tensor) inGraph() bool { return t.requiresGrad || t.back != nil }

// ensureGrad allocates the gradient buffer if needed.
func (t *Tensor) ensureGrad() {
	if t.Grad == nil {
		t.Grad = make([]float64, len(t.Data))
	}
}

// ZeroGrad clears the gradient buffer.
func (t *Tensor) ZeroGrad() {
	for i := range t.Grad {
		t.Grad[i] = 0
	}
}

// output returns the zero tensor an op writes its result into and reports
// whether the op must record its backward closure on it (taped). When any
// input belongs to a Scratch the pass is tape-free: the result comes from
// that Scratch and nothing is recorded. Otherwise the result is on the
// heap and keeps its in-graph inputs as parents; with none, no gradient
// can flow through it and no closure is needed either.
func output(rows, cols int, inputs ...*Tensor) (out *Tensor, taped bool) {
	for _, p := range inputs {
		if p != nil && p.scratch != nil {
			return p.scratch.New(rows, cols), false
		}
	}
	out = New(rows, cols)
	for _, p := range inputs {
		if p != nil && p.inGraph() {
			out.parents = append(out.parents, p)
		}
	}
	return out, len(out.parents) > 0
}

// Backward runs reverse-mode differentiation from t, which must be a scalar
// (1×1). Gradients accumulate into the Grad buffers of every tensor on the
// path to the leaves; parameters should be zeroed between steps (the
// optimizers do this).
func (t *Tensor) Backward() {
	if t.Rows != 1 || t.Cols != 1 {
		panic(fmt.Sprintf("nn: Backward on non-scalar %dx%d tensor", t.Rows, t.Cols))
	}
	order := topoSort(t)
	t.ensureGrad()
	t.Grad[0] = 1
	for i := len(order) - 1; i >= 0; i-- {
		n := order[i]
		if n.back != nil {
			n.back(n)
		}
	}
}

// topoSort returns the graph under root in topological order (parents before
// children). Iterative DFS to avoid deep recursion on long RNN chains.
func topoSort(root *Tensor) []*Tensor {
	var order []*Tensor
	visited := map[*Tensor]bool{}
	type frame struct {
		n    *Tensor
		next int
	}
	stack := []frame{{n: root}}
	visited[root] = true
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.next < len(f.n.parents) {
			p := f.n.parents[f.next]
			f.next++
			if !visited[p] {
				visited[p] = true
				stack = append(stack, frame{n: p})
			}
			continue
		}
		order = append(order, f.n)
		stack = stack[:len(stack)-1]
	}
	return order
}

func (t *Tensor) String() string {
	return fmt.Sprintf("Tensor(%dx%d)", t.Rows, t.Cols)
}

func sameShape(a, b *Tensor) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("nn: shape mismatch %dx%d vs %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
}
