package nn

import (
	"math/rand"
	"testing"
)

// checkOp gradchecks a graph builder over the given parameters.
func checkOp(t *testing.T, name string, params []*Tensor, build func() *Tensor) {
	t.Helper()
	if err := GradCheck(params, build, 1e-5); err > 1e-4 {
		t.Errorf("%s: max relative gradient error %v", name, err)
	}
}

// checkOpLoose is checkOp with a larger step and tolerance for deep
// compositions whose loss magnitude makes central differences cancel
// (the error there is the finite-difference numerics, not the analytic
// gradient: it shrinks as eps grows, the opposite of a real bug).
func checkOpLoose(t *testing.T, name string, params []*Tensor, build func() *Tensor) {
	t.Helper()
	if err := GradCheck(params, build, 1e-4); err > 1e-2 {
		t.Errorf("%s: max relative gradient error %v", name, err)
	}
}

func randParam(rng *rand.Rand, rows, cols int) *Tensor {
	p := Randn(rows, cols, 1, rng)
	p.SetRequiresGrad(true)
	return p
}

func TestGradMatMul(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randParam(rng, 3, 4)
	b := randParam(rng, 4, 2)
	checkOp(t, "MatMul", []*Tensor{a, b}, func() *Tensor {
		return SumAll(Square(MatMul(a, b)))
	})
}

func TestGradAddSubMul(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randParam(rng, 2, 3)
	b := randParam(rng, 2, 3)
	checkOp(t, "Add", []*Tensor{a, b}, func() *Tensor { return SumAll(Square(Add(a, b))) })
	checkOp(t, "Sub", []*Tensor{a, b}, func() *Tensor { return SumAll(Square(Sub(a, b))) })
	checkOp(t, "Mul", []*Tensor{a, b}, func() *Tensor { return SumAll(Square(Mul(a, b))) })
}

func TestGradAddRow(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randParam(rng, 3, 4)
	b := randParam(rng, 1, 4)
	checkOp(t, "AddRow", []*Tensor{a, b}, func() *Tensor { return SumAll(Square(AddRow(a, b))) })
}

func TestGradActivations(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randParam(rng, 2, 5)
	// Shift away from the ReLU kink to keep finite differences valid.
	for i := range a.Data {
		if a.Data[i] > -0.01 && a.Data[i] < 0.01 {
			a.Data[i] = 0.1
		}
	}
	checkOp(t, "ReLU", []*Tensor{a}, func() *Tensor { return SumAll(Square(ReLU(a))) })
	checkOp(t, "Tanh", []*Tensor{a}, func() *Tensor { return SumAll(Square(Tanh(a))) })
	checkOp(t, "Sigmoid", []*Tensor{a}, func() *Tensor { return SumAll(Square(Sigmoid(a))) })
	checkOp(t, "Exp", []*Tensor{a}, func() *Tensor { return SumAll(Exp(Scale(a, 0.3))) })
	checkOp(t, "Log", []*Tensor{a}, func() *Tensor { return SumAll(Log(AddScalar(Square(a), 1), 0)) })
}

func TestGradSoftmax(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randParam(rng, 3, 4)
	w := randParam(rng, 3, 4) // random weighting so the gradient is nontrivial
	w.SetRequiresGrad(false)
	checkOp(t, "SoftmaxRows", []*Tensor{a}, func() *Tensor {
		return SumAll(Mul(SoftmaxRows(a), w))
	})
}

func TestGradReductionsAndShape(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := randParam(rng, 3, 4)
	checkOp(t, "MeanAll", []*Tensor{a}, func() *Tensor { return MeanAll(Square(a)) })
	checkOp(t, "MeanRows", []*Tensor{a}, func() *Tensor { return SumAll(Square(MeanRows(a))) })
	checkOp(t, "Transpose", []*Tensor{a}, func() *Tensor { return SumAll(Square(MatMul(Transpose(a), a))) })
	b := randParam(rng, 3, 2)
	checkOp(t, "ConcatCols", []*Tensor{a, b}, func() *Tensor { return SumAll(Square(ConcatCols(a, b))) })
	c := randParam(rng, 2, 4)
	checkOp(t, "ConcatRows", []*Tensor{a, c}, func() *Tensor { return SumAll(Square(ConcatRows(a, c))) })
	checkOp(t, "SliceRows", []*Tensor{a}, func() *Tensor { return SumAll(Square(SliceRows(a, 1, 3))) })
	checkOp(t, "SliceCols", []*Tensor{a}, func() *Tensor { return SumAll(Square(SliceCols(a, 1, 4))) })
}

func TestGradGather(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	table := randParam(rng, 5, 3)
	checkOp(t, "Gather", []*Tensor{table}, func() *Tensor {
		return SumAll(Square(Gather(table, []int{0, 2, 2, 4})))
	})
}

func TestGradEuclidean(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := randParam(rng, 1, 6)
	b := randParam(rng, 1, 6)
	checkOp(t, "EuclideanDistance", []*Tensor{a, b}, func() *Tensor {
		return EuclideanDistance(a, b)
	})
}

func TestGradLinearAndMLP(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	lin := NewLinear(4, 3, rng)
	x := randParam(rng, 2, 4)
	params := append([]*Tensor{x}, lin.Params()...)
	checkOp(t, "Linear", params, func() *Tensor { return SumAll(Square(lin.Forward(x))) })

	mlp := NewMLP(rng, 4, 8, 3)
	params = append([]*Tensor{x}, mlp.Params()...)
	checkOp(t, "MLP", params, func() *Tensor { return SumAll(Square(mlp.Forward(x))) })
}

func TestGradLayerNorm(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	ln := NewLayerNorm(5)
	x := randParam(rng, 3, 5)
	params := append([]*Tensor{x}, ln.Params()...)
	checkOp(t, "LayerNorm", params, func() *Tensor { return SumAll(Square(ln.Forward(x))) })
}

func TestGradAttention(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	attn := NewMultiHeadAttention(8, 2, rng)
	x := randParam(rng, 4, 8)
	params := append([]*Tensor{x}, attn.Params()...)
	checkOpLoose(t, "MultiHeadAttention", params, func() *Tensor {
		return SumAll(Square(attn.Forward(x)))
	})
}

func TestGradEncoderBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	blk := NewEncoderBlock(8, 2, 16, true, rng)
	x := randParam(rng, 3, 8)
	params := append([]*Tensor{x}, blk.Params()...)
	checkOpLoose(t, "EncoderBlock", params, func() *Tensor {
		return SumAll(Square(blk.Forward(x)))
	})
}

func TestGradGRU(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	cell := NewGRUCell(3, 4, rng)
	x := randParam(rng, 5, 3)
	params := append([]*Tensor{x}, cell.Params()...)
	checkOp(t, "GRU.Final", params, func() *Tensor {
		return SumAll(Square(cell.Final(x)))
	})
}

func TestGradEmbeddingFrozen(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	emb := NewEmbedding(6, 3, rng)
	emb.Table.SetRequiresGrad(false)
	if got := emb.Params(); got != nil {
		t.Errorf("frozen embedding exposes params: %v", got)
	}
	// Gradient should not reach the frozen table.
	out := SumAll(Square(emb.Forward([]int{1, 2})))
	out.Backward()
	if emb.Table.Grad != nil {
		for _, g := range emb.Table.Grad {
			if g != 0 {
				t.Fatal("gradient reached frozen table")
			}
		}
	}
}
