package nn

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"testing"
)

func TestLinearShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := NewLinear(4, 7, rng)
	out := l.Forward(New(3, 4))
	if out.Rows != 3 || out.Cols != 7 {
		t.Errorf("shape = %dx%d", out.Rows, out.Cols)
	}
	if len(l.Params()) != 2 {
		t.Errorf("params = %d", len(l.Params()))
	}
}

func TestMLPDepth(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := NewMLP(rng, 4, 8, 8, 2)
	if len(m.Layers) != 3 {
		t.Fatalf("layers = %d", len(m.Layers))
	}
	out := m.Forward(New(5, 4))
	if out.Rows != 5 || out.Cols != 2 {
		t.Errorf("shape = %dx%d", out.Rows, out.Cols)
	}
}

func TestLayerNormStatistics(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ln := NewLayerNorm(16)
	x := Randn(4, 16, 3, rng)
	out := ln.Forward(x)
	for i := 0; i < out.Rows; i++ {
		var mean, varr float64
		for j := 0; j < out.Cols; j++ {
			mean += out.At(i, j)
		}
		mean /= float64(out.Cols)
		for j := 0; j < out.Cols; j++ {
			d := out.At(i, j) - mean
			varr += d * d
		}
		varr /= float64(out.Cols)
		if math.Abs(mean) > 1e-9 || math.Abs(varr-1) > 1e-3 {
			t.Errorf("row %d: mean %v var %v", i, mean, varr)
		}
	}
}

func TestAttentionShapesAndPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := NewMultiHeadAttention(8, 4, rng)
	x := Randn(5, 8, 1, rng)
	out := a.Forward(x)
	if out.Rows != 5 || out.Cols != 8 {
		t.Fatalf("shape = %dx%d", out.Rows, out.Cols)
	}
	if len(a.Params()) != 8 {
		t.Errorf("params = %d", len(a.Params()))
	}
}

func TestAttentionHeadDivisibilityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewMultiHeadAttention(10, 3, rand.New(rand.NewSource(1)))
}

func TestGRUShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := NewGRUCell(3, 6, rng)
	x := Randn(7, 3, 1, rng)
	fin := c.Final(x)
	if fin.Rows != 1 || fin.Cols != 6 {
		t.Errorf("Final = %dx%d", fin.Rows, fin.Cols)
	}
	// Final equals the last state of a Step loop from a zero state.
	h := New(1, 6)
	for i := 0; i < x.Rows; i++ {
		h = c.Step(SliceRows(x, i, i+1), h)
	}
	for j := 0; j < 6; j++ {
		if !almostEqual(fin.At(0, j), h.At(0, j), 1e-12) {
			t.Errorf("Final[%d] = %v, last step = %v", j, fin.At(0, j), h.At(0, j))
		}
	}
}

func TestPositionalEncodingValues(t *testing.T) {
	pe := NewPositionalEncoding(50, 8)
	s := pe.Add(New(3, 8)) // x = 0: the raw encodings
	// Position 0: sin(0)=0, cos(0)=1 alternating.
	for k := 0; k < 4; k++ {
		if s.At(0, 2*k) != 0 {
			t.Errorf("s_0(2k) = %v", s.At(0, 2*k))
		}
		if s.At(0, 2*k+1) != 1 {
			t.Errorf("s_0(2k+1) = %v", s.At(0, 2*k+1))
		}
	}
	// Position 1, dim 0: sin(1).
	if !almostEqual(s.At(1, 0), math.Sin(1), 1e-12) {
		t.Errorf("s_1(0) = %v", s.At(1, 0))
	}
	// Equation 8 frequency: dim 2 uses 10000^{2/8}.
	want := math.Sin(1 / math.Pow(10000, 2.0/8.0))
	if !almostEqual(s.At(1, 2), want, 1e-12) {
		t.Errorf("s_1(2) = %v, want %v", s.At(1, 2), want)
	}
}

func TestPositionalEncodingAdd(t *testing.T) {
	pe := NewPositionalEncoding(10, 4)
	x := Randn(3, 4, 1, rand.New(rand.NewSource(4)))
	out := pe.Add(x)
	s := pe.Add(New(3, 4))
	for i := range out.Data {
		if out.Data[i] != x.Data[i]+s.Data[i] {
			t.Fatal("Add(x) != x + Add(0)")
		}
	}
	// Beyond the horizon, positions wrap: row 10 is position 0's encoding.
	long := pe.Add(New(25, 4))
	if long.Rows != 25 {
		t.Fatal("wrap failed")
	}
	for j := 0; j < 4; j++ {
		if long.At(10, j) != s.At(0, j) {
			t.Errorf("row 10 col %d = %v, want position 0's %v", j, long.At(10, j), s.At(0, j))
		}
	}
}

func TestEmbeddingForward(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	e := NewEmbedding(10, 4, rng)
	out := e.Forward([]int{3, 3, 7})
	if out.Rows != 3 || out.Cols != 4 {
		t.Fatalf("shape = %dx%d", out.Rows, out.Cols)
	}
	for j := 0; j < 4; j++ {
		if out.At(0, j) != out.At(1, j) {
			t.Error("same id maps to different rows")
		}
	}
	if len(e.Params()) != 1 {
		t.Errorf("params = %d", len(e.Params()))
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := Randn(1, 4, 1, rng)
	p.SetRequiresGrad(true)
	opt := NewAdam([]*Tensor{p}, 0.05)
	for i := 0; i < 400; i++ {
		loss := SumAll(Square(AddScalar(p, -3))) // minimize (p-3)^2
		loss.Backward()
		opt.Step()
	}
	for _, v := range p.Data {
		if math.Abs(v-3) > 0.05 {
			t.Errorf("Adam did not converge: %v", p.Data)
			break
		}
	}
}

func TestClipGradNorm(t *testing.T) {
	p := NewParam(1, 2)
	p.ensureGrad()
	p.Grad[0], p.Grad[1] = 3, 4 // norm 5
	norm := ClipGradNorm([]*Tensor{p}, 1)
	if !almostEqual(norm, 5, 1e-12) {
		t.Errorf("norm = %v", norm)
	}
	if !almostEqual(p.Grad[0], 0.6, 1e-12) || !almostEqual(p.Grad[1], 0.8, 1e-12) {
		t.Errorf("clipped = %v", p.Grad)
	}
	// Below threshold: untouched.
	p.Grad[0], p.Grad[1] = 0.3, 0.4
	ClipGradNorm([]*Tensor{p}, 1)
	if p.Grad[0] != 0.3 {
		t.Error("clip modified small gradient")
	}
}

func TestSaveLoadParams(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	src := NewMLP(rng, 4, 8, 2)
	var buf bytes.Buffer
	if err := SaveParams(&buf, src.Params()); err != nil {
		t.Fatal(err)
	}
	got, err := ReadParams(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(src.Params()) {
		t.Fatalf("read %d params, saved %d", len(got), len(src.Params()))
	}
	for i, p := range src.Params() {
		q := got[i]
		if q.Rows != p.Rows || q.Cols != p.Cols {
			t.Fatalf("param %d is %dx%d after round trip, want %dx%d", i, q.Rows, q.Cols, p.Rows, p.Cols)
		}
		for j := range p.Data {
			if p.Data[j] != q.Data[j] {
				t.Fatalf("param %d differs after round trip", i)
			}
		}
	}
}

// TestLoadParamsRejectsUnfilledShape pins that a blob whose data does
// not fill its shape exactly, or whose shape is not positive, is an
// error, not a tensor whose shape and data disagree.
func TestLoadParamsRejectsUnfilledShape(t *testing.T) {
	for name, blob := range map[string]paramBlob{
		"short":     {Rows: 2, Cols: 3, Data: []float64{1, 2}},
		"long":      {Rows: 2, Cols: 3, Data: []float64{1, 2, 3, 4, 5, 6, 7}},
		"zero rows": {Rows: 0, Cols: 3},
		"negative":  {Rows: -2, Cols: -3, Data: []float64{1, 2, 3, 4, 5, 6}},
	} {
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			enc := gob.NewEncoder(&buf)
			if err := enc.Encode(1); err != nil {
				t.Fatal(err)
			}
			if err := enc.Encode(blob); err != nil {
				t.Fatal(err)
			}
			if ts, err := ReadParams(&buf); err == nil {
				t.Errorf("read with no error as %dx%d", ts[0].Rows, ts[0].Cols)
			}
		})
	}
}

func TestCollectParams(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	a := NewLinear(2, 2, rng)
	b := NewLinear(2, 2, rng)
	if got := len(CollectParams(a, b)); got != 4 {
		t.Errorf("CollectParams = %d", got)
	}
}

// TestTrainingLossDecreases is a small integration test: a two-layer MLP
// should fit a smooth function, with monotone-ish loss decrease.
func TestTrainingLossDecreases(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	mlp := NewMLP(rng, 2, 16, 1)
	opt := NewAdam(mlp.Params(), 1e-2)
	// Fit y = x0 + 2*x1 on fixed data.
	n := 32
	xs := Randn(n, 2, 1, rng)
	ys := New(n, 1)
	for i := 0; i < n; i++ {
		ys.Data[i] = xs.At(i, 0) + 2*xs.At(i, 1)
	}
	var first, last float64
	for epoch := 0; epoch < 200; epoch++ {
		pred := mlp.Forward(xs)
		loss := MeanAll(Square(Sub(pred, ys)))
		if epoch == 0 {
			first = loss.Scalar()
		}
		last = loss.Scalar()
		loss.Backward()
		opt.Step()
	}
	if last > first*0.05 {
		t.Errorf("loss did not decrease enough: %v -> %v", first, last)
	}
}
