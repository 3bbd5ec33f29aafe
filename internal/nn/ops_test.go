package nn

import (
	"math"
	"testing"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestMatMulForward(t *testing.T) {
	a := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := FromSlice(3, 2, []float64{7, 8, 9, 10, 11, 12})
	c := MatMul(a, b)
	want := []float64{58, 64, 139, 154}
	for i, w := range want {
		if !almostEqual(c.Data[i], w, 1e-12) {
			t.Errorf("c[%d] = %v, want %v", i, c.Data[i], w)
		}
	}
}

func TestMatMulShapePanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on shape mismatch")
		}
	}()
	MatMul(New(2, 3), New(2, 3))
}

func TestAddSubMul(t *testing.T) {
	a := FromSlice(1, 3, []float64{1, 2, 3})
	b := FromSlice(1, 3, []float64{4, 5, 6})
	if got := Add(a, b).Data; got[0] != 5 || got[2] != 9 {
		t.Errorf("Add = %v", got)
	}
	if got := Sub(a, b).Data; got[0] != -3 || got[2] != -3 {
		t.Errorf("Sub = %v", got)
	}
	if got := Mul(a, b).Data; got[0] != 4 || got[2] != 18 {
		t.Errorf("Mul = %v", got)
	}
}

func TestAddRow(t *testing.T) {
	a := FromSlice(2, 2, []float64{1, 2, 3, 4})
	b := FromSlice(1, 2, []float64{10, 20})
	got := AddRow(a, b).Data
	want := []float64{11, 22, 13, 24}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("AddRow = %v", got)
			break
		}
	}
}

func TestActivationsForward(t *testing.T) {
	a := FromSlice(1, 4, []float64{-2, -0.5, 0.5, 2})
	if got := ReLU(a).Data; got[0] != 0 || got[1] != 0 || got[2] != 0.5 || got[3] != 2 {
		t.Errorf("ReLU = %v", got)
	}
	tg := Tanh(a).Data
	if !almostEqual(tg[3], math.Tanh(2), 1e-12) {
		t.Errorf("Tanh = %v", tg)
	}
	sg := Sigmoid(a).Data
	if !almostEqual(sg[0], 1/(1+math.Exp(2)), 1e-12) {
		t.Errorf("Sigmoid = %v", sg)
	}
}

func TestSoftmaxRows(t *testing.T) {
	a := FromSlice(2, 3, []float64{1, 2, 3, 1000, 1000, 1000})
	s := SoftmaxRows(a)
	// Row sums to 1.
	for i := 0; i < 2; i++ {
		var sum float64
		for j := 0; j < 3; j++ {
			sum += s.At(i, j)
		}
		if !almostEqual(sum, 1, 1e-12) {
			t.Errorf("row %d sums to %v", i, sum)
		}
	}
	// Large inputs do not overflow (max-subtraction).
	if !almostEqual(s.At(1, 0), 1.0/3.0, 1e-12) {
		t.Errorf("softmax overflow handling broken: %v", s.At(1, 0))
	}
	// Monotone within row.
	if !(s.At(0, 0) < s.At(0, 1) && s.At(0, 1) < s.At(0, 2)) {
		t.Error("softmax not monotone")
	}
}

func TestReductions(t *testing.T) {
	a := FromSlice(2, 2, []float64{1, 2, 3, 4})
	if got := SumAll(a).Scalar(); got != 10 {
		t.Errorf("SumAll = %v", got)
	}
	if got := MeanAll(a).Scalar(); got != 2.5 {
		t.Errorf("MeanAll = %v", got)
	}
	m := MeanRows(a)
	if m.Rows != 1 || m.Cols != 2 || m.Data[0] != 2 || m.Data[1] != 3 {
		t.Errorf("MeanRows = %v", m.Data)
	}
}

func TestTranspose(t *testing.T) {
	a := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	tr := Transpose(a)
	if tr.Rows != 3 || tr.Cols != 2 || tr.At(0, 1) != 4 || tr.At(2, 0) != 3 {
		t.Errorf("Transpose = %v", tr.Data)
	}
}

func TestConcatAndSlice(t *testing.T) {
	a := FromSlice(2, 2, []float64{1, 2, 3, 4})
	b := FromSlice(2, 1, []float64{5, 6})
	cc := ConcatCols(a, b)
	if cc.Cols != 3 || cc.At(0, 2) != 5 || cc.At(1, 2) != 6 {
		t.Errorf("ConcatCols = %v", cc.Data)
	}
	c := FromSlice(1, 2, []float64{7, 8})
	cr := ConcatRows(a, c)
	if cr.Rows != 3 || cr.At(2, 0) != 7 {
		t.Errorf("ConcatRows = %v", cr.Data)
	}
	s := SliceRows(cr, 1, 3)
	if s.Rows != 2 || s.At(0, 0) != 3 || s.At(1, 1) != 8 {
		t.Errorf("SliceRows = %v", s.Data)
	}
	sc := SliceCols(cc, 1, 3)
	if sc.Cols != 2 || sc.At(0, 0) != 2 || sc.At(0, 1) != 5 {
		t.Errorf("SliceCols = %v", sc.Data)
	}
}

func TestGather(t *testing.T) {
	table := FromSlice(3, 2, []float64{1, 2, 3, 4, 5, 6})
	g := Gather(table, []int{2, 0, 2})
	if g.Rows != 3 || g.At(0, 0) != 5 || g.At(1, 1) != 2 || g.At(2, 1) != 6 {
		t.Errorf("Gather = %v", g.Data)
	}
}

func TestGatherOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Gather(New(3, 2), []int{3})
}

func TestDot(t *testing.T) {
	a := FromSlice(1, 3, []float64{1, 2, 3})
	b := FromSlice(1, 3, []float64{4, 5, 6})
	if got := Dot(a, b).Scalar(); got != 32 {
		t.Errorf("Dot = %v", got)
	}
}

func TestEuclideanDistance(t *testing.T) {
	a := FromSlice(1, 2, []float64{0, 0})
	b := FromSlice(1, 2, []float64{3, 4})
	if got := EuclideanDistance(a, b).Scalar(); !almostEqual(got, 5, 1e-6) {
		t.Errorf("EuclideanDistance = %v", got)
	}
}

func TestBackwardSimpleChain(t *testing.T) {
	// loss = sum((x*2 + 1)^2), dloss/dx = 2*(2x+1)*2
	x := NewParam(1, 3)
	x.Data[0], x.Data[1], x.Data[2] = 1, -2, 0.5
	loss := SumAll(Square(AddScalar(Scale(x, 2), 1)))
	loss.Backward()
	for i, xv := range x.Data {
		want := 4 * (2*xv + 1)
		if !almostEqual(x.Grad[i], want, 1e-9) {
			t.Errorf("grad[%d] = %v, want %v", i, x.Grad[i], want)
		}
	}
}

func TestBackwardAccumulatesAcrossUses(t *testing.T) {
	// loss = sum(x + x) => grad = 2 per element.
	x := NewParam(1, 2)
	x.Data[0], x.Data[1] = 3, 4
	loss := SumAll(Add(x, x))
	loss.Backward()
	if x.Grad[0] != 2 || x.Grad[1] != 2 {
		t.Errorf("grad = %v", x.Grad)
	}
}

func TestBackwardNonScalarPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(2, 2).Backward()
}

func TestScalarPanicsOnMatrix(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(2, 1).Scalar()
}
