package nn

import (
	"math/rand"
	"strings"
	"testing"
)

func TestRowSumsForward(t *testing.T) {
	a := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	s := RowSums(a)
	if s.Rows != 2 || s.Cols != 1 || s.Data[0] != 6 || s.Data[1] != 15 {
		t.Errorf("RowSums = %v", s.Data)
	}
}

func TestDivByColumnForward(t *testing.T) {
	a := FromSlice(2, 2, []float64{2, 4, 9, 3})
	c := FromSlice(2, 1, []float64{2, 3})
	out := DivByColumn(a, c)
	want := []float64{1, 2, 3, 1}
	for i := range want {
		if out.Data[i] != want[i] {
			t.Fatalf("DivByColumn = %v", out.Data)
		}
	}
}

func TestDivByColumnShapePanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	DivByColumn(New(2, 2), New(3, 1))
}

func TestGradRowSumsAndDiv(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	a := randParam(rng, 3, 4)
	// Keep divisors away from zero.
	c := randParam(rng, 3, 1)
	for i := range c.Data {
		if c.Data[i] > -0.5 && c.Data[i] < 0.5 {
			c.Data[i] = 1.5
		}
	}
	checkOp(t, "RowSums", []*Tensor{a}, func() *Tensor { return SumAll(Square(RowSums(a))) })
	checkOp(t, "DivByColumn", []*Tensor{a, c}, func() *Tensor { return SumAll(Square(DivByColumn(a, c))) })
}

func TestGradDotAndHinge(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	a := randParam(rng, 1, 5)
	b := randParam(rng, 1, 5)
	checkOp(t, "Dot", []*Tensor{a, b}, func() *Tensor { return Square(Dot(a, b)) })
	checkOp(t, "HingeScalar", []*Tensor{a, b}, func() *Tensor {
		return HingeScalar(AddScalar(Dot(a, b), 10)) // keep away from the kink
	})
}

func TestFromVec(t *testing.T) {
	v := FromVec([]float64{1, 2, 3})
	if v.Rows != 1 || v.Cols != 3 {
		t.Fatalf("FromVec shape %dx%d", v.Rows, v.Cols)
	}
}

func TestTensorString(t *testing.T) {
	if s := New(2, 3).String(); !strings.Contains(s, "2x3") {
		t.Errorf("String = %q", s)
	}
}

func TestNewInvalidShapePanics(t *testing.T) {
	for _, c := range [][2]int{{0, 1}, {1, 0}, {-1, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d,%d) did not panic", c[0], c[1])
				}
			}()
			New(c[0], c[1])
		}()
	}
}

func TestFromSliceLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	FromSlice(2, 2, []float64{1, 2, 3})
}

// TestAdamStepClearsGradients pins that a step consumes the gradients it
// applies, so the next Backward starts from zero instead of adding to them.
func TestAdamStepClearsGradients(t *testing.T) {
	p := NewParam(1, 2)
	p.ensureGrad()
	p.Grad[0], p.Grad[1] = 1, 2
	NewAdam([]*Tensor{p}, 0.1).Step()
	if p.Grad[0] != 0 || p.Grad[1] != 0 {
		t.Errorf("gradient after Step = %v, want zeros", p.Grad)
	}
}

func TestSliceOpsPanics(t *testing.T) {
	a := New(3, 3)
	for _, f := range []func(){
		func() { SliceRows(a, -1, 2) },
		func() { SliceRows(a, 2, 2) },
		func() { SliceRows(a, 0, 4) },
		func() { SliceCols(a, 3, 4) },
		func() { ConcatCols() },
		func() { ConcatRows() },
		func() { ConcatCols(New(2, 2), New(3, 2)) },
		func() { ConcatRows(New(2, 2), New(2, 3)) },
		func() { AddRow(New(2, 3), New(1, 2)) },
		func() { NewMLP(rand.New(rand.NewSource(1)), 4) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}
