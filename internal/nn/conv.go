package nn

import (
	"fmt"
	"math/rand"
)

// Conv3x3 is a same-padded 3×3 convolution over a fixed-size 2D field
// whose cells are stored row-major as tensor rows: the input is an
// (NX·NY)×In tensor (one row per cell, one column per channel) and the
// output is an (NX·NY)×Out tensor. It is implemented as im2col over the
// existing autograd ops — Gather assembles the nine shifted views of the
// field, ConcatCols stacks them into patch rows, and a single MatMul
// applies the kernel — so the backward pass comes for free and the hot
// loop is the already-optimized matrix multiply.
type Conv3x3 struct {
	NX, NY  int     // field width and height in cells
	In, Out int     // input and output channels
	K       *Tensor // kernel, (9·In)×Out
	B       *Tensor // bias, 1×Out

	// idx holds, per kernel tap, the source row of every output cell;
	// out-of-field taps point at the appended zero row (index NX·NY).
	idx [9][]int
}

// NewConv3x3 builds a 3×3 convolution over an NX×NY field with the given
// channel counts, Xavier-initialized from rng.
func NewConv3x3(nx, ny, in, out int, rng *rand.Rand) *Conv3x3 {
	if nx <= 0 || ny <= 0 || in <= 0 || out <= 0 {
		panic(fmt.Sprintf("nn: Conv3x3 dimensions must be positive, got %dx%d field, %d->%d channels", nx, ny, in, out))
	}
	c := &Conv3x3{
		NX: nx, NY: ny, In: in, Out: out,
		K: XavierParam(9*in, out, rng),
		B: NewParam(1, out),
	}
	pad := nx * ny // the zero row appended by Forward
	tap := 0
	for dy := -1; dy <= 1; dy++ {
		for dx := -1; dx <= 1; dx++ {
			ids := make([]int, nx*ny)
			for y := 0; y < ny; y++ {
				for x := 0; x < nx; x++ {
					sx, sy := x+dx, y+dy
					if sx < 0 || sx >= nx || sy < 0 || sy >= ny {
						ids[y*nx+x] = pad
					} else {
						ids[y*nx+x] = sy*nx + sx
					}
				}
			}
			c.idx[tap] = ids
			tap++
		}
	}
	return c
}

// Forward applies the convolution to an (NX·NY)×In field tensor and
// returns the (NX·NY)×Out response. Padding is zero: a constant zero row
// is appended to the input and out-of-field taps gather it.
func (c *Conv3x3) Forward(x *Tensor) *Tensor {
	if x.Rows != c.NX*c.NY || x.Cols != c.In {
		panic(fmt.Sprintf("nn: Conv3x3 input %dx%d, want %dx%d", x.Rows, x.Cols, c.NX*c.NY, c.In))
	}
	mark := x.scratch.Mark()
	padded := ConcatRows(x, x.scratch.New(1, c.In))
	var taps [9]*Tensor
	for t := range c.idx {
		taps[t] = Gather(padded, c.idx[t])
	}
	patches := ConcatCols(taps[:]...)
	return mark.Keep(AddRow(MatMul(patches, c.K), c.B))
}

// Params returns the trainable kernel and bias.
func (c *Conv3x3) Params() []*Tensor { return []*Tensor{c.K, c.B} }
