package baselines

import (
	"math/rand"

	"traj2hash/internal/geo"
	"traj2hash/internal/hamming"
)

// Fresh is the locality-sensitive hash for curves [18]: each repetition
// shifts a grid of the configured resolution by a random offset, maps the
// trajectory to its sequence of visited cells (consecutive duplicates
// collapsed), and hashes that sequence to an integer with multiply-shift
// hashing. Section V-A5: resolution 1 km, 4 repetitions × 1 concatenation,
// 16 bits per hash — 64 bits total, aligned with the neural codes.
type Fresh struct {
	Resolution  float64
	Repetitions int
	BitsPerHash int

	shifts []geo.Point // one random shift per repetition
	seeds  []uint64    // multiply-shift multipliers (odd)
}

// NewFresh builds the hasher with the paper's defaults.
func NewFresh(resolution float64, repetitions, bitsPerHash int, seed int64) *Fresh {
	rng := rand.New(rand.NewSource(seed))
	f := &Fresh{
		Resolution:  resolution,
		Repetitions: repetitions,
		BitsPerHash: bitsPerHash,
	}
	for i := 0; i < repetitions; i++ {
		f.shifts = append(f.shifts, geo.Point{
			X: rng.Float64() * resolution,
			Y: rng.Float64() * resolution,
		})
		f.seeds = append(f.seeds, rng.Uint64()|1) // multiply-shift needs odd a
	}
	return f
}

// Bits returns the total code length.
func (f *Fresh) Bits() int { return f.Repetitions * f.BitsPerHash }

// cellSequence maps a trajectory to its deduplicated sequence of shifted
// grid cells for repetition r.
func (f *Fresh) cellSequence(t geo.Trajectory, r int) []uint64 {
	var out []uint64
	var prev uint64
	first := true
	for _, p := range t {
		cx := int64((p.X + f.shifts[r].X) / f.Resolution)
		cy := int64((p.Y + f.shifts[r].Y) / f.Resolution)
		// Pack the signed cell coordinates into one word.
		cell := uint64(cx)<<32 ^ uint64(uint32(cy))
		if first || cell != prev {
			out = append(out, cell)
			prev = cell
			first = false
		}
	}
	return out
}

// hashSequence applies multiply-shift hashing to a cell sequence, keeping
// BitsPerHash bits.
func (f *Fresh) hashSequence(cells []uint64, r int) uint64 {
	a := f.seeds[r]
	var h uint64 = 1469598103934665603 // FNV offset as the running state
	for _, c := range cells {
		// Multiply-shift per element, folded FNV-style into the state.
		hc := (a * c) >> (64 - uint(f.BitsPerHash))
		h = (h ^ hc) * 1099511628211
	}
	return h >> (64 - uint(f.BitsPerHash))
}

// Code hashes a trajectory into the concatenated binary code.
func (f *Fresh) Code(t geo.Trajectory) hamming.Code {
	c := hamming.NewCode(f.Bits())
	for r := 0; r < f.Repetitions; r++ {
		h := f.hashSequence(f.cellSequence(t, r), r)
		for b := 0; b < f.BitsPerHash; b++ {
			if h&(1<<uint(b)) != 0 {
				i := r*f.BitsPerHash + b
				c.Words[i/64] |= 1 << (i % 64)
			}
		}
	}
	return c
}

// CodeAll hashes a batch of trajectories.
func (f *Fresh) CodeAll(ts []geo.Trajectory) []hamming.Code {
	out := make([]hamming.Code, len(ts))
	for i, t := range ts {
		out[i] = f.Code(t)
	}
	return out
}
