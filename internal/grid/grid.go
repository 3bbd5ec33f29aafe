// Package grid implements the spatial grid machinery of the paper:
//
//   - partitioning the study space into equal-size cells and mapping GPS
//     trajectories to grid trajectories (Definition 2);
//   - the decomposed grid representation e_g = e_x + e_y with its NCE
//     pre-training (Section IV-C, Equations 5–7);
//   - a node2vec baseline over the grid adjacency graph, the comparator of
//     the grid-representation study (Figure 7);
//   - a full per-cell embedding table for memory-footprint comparisons.
package grid

import (
	"fmt"
	"math"

	"traj2hash/internal/geo"
)

// Grid partitions an axis-aligned region into equal-size square cells.
// Cells are addressed either by (x, y) coordinate — column and row — or by a
// single id y*NX + x.
type Grid struct {
	MinX, MinY float64 // region origin
	CellSize   float64 // cell edge length, e.g. 50 m (Section V-A1)
	NX, NY     int     // number of cells along X and Y
}

// New builds a grid covering [min, max] with the given cell size. The region
// is padded so every point of the region falls inside a cell.
func New(min, max geo.Point, cellSize float64) (*Grid, error) {
	if cellSize <= 0 {
		return nil, fmt.Errorf("grid: cell size %v must be positive", cellSize)
	}
	if max.X < min.X || max.Y < min.Y {
		return nil, fmt.Errorf("grid: inverted region %v–%v", min, max)
	}
	nx := int(math.Floor((max.X-min.X)/cellSize)) + 1
	ny := int(math.Floor((max.Y-min.Y)/cellSize)) + 1
	return &Grid{MinX: min.X, MinY: min.Y, CellSize: cellSize, NX: nx, NY: ny}, nil
}

// FromTrajectories builds a grid that covers all points of ts.
func FromTrajectories(ts []geo.Trajectory, cellSize float64) (*Grid, error) {
	if len(ts) == 0 {
		return nil, fmt.Errorf("grid: no trajectories")
	}
	min := geo.Point{X: math.Inf(1), Y: math.Inf(1)}
	max := geo.Point{X: math.Inf(-1), Y: math.Inf(-1)}
	for _, t := range ts {
		if len(t) == 0 {
			continue
		}
		lo, hi := t.BoundingBox()
		min.X = math.Min(min.X, lo.X)
		min.Y = math.Min(min.Y, lo.Y)
		max.X = math.Max(max.X, hi.X)
		max.Y = math.Max(max.Y, hi.Y)
	}
	if math.IsInf(min.X, 1) {
		return nil, fmt.Errorf("grid: all trajectories empty")
	}
	return New(min, max, cellSize)
}

// Cells returns the total number of cells NX·NY.
func (g *Grid) Cells() int { return g.NX * g.NY }

// Coord maps a point to its (x, y) cell coordinate, clamped to the region.
func (g *Grid) Coord(p geo.Point) (x, y int) {
	x = int(math.Floor((p.X - g.MinX) / g.CellSize))
	y = int(math.Floor((p.Y - g.MinY) / g.CellSize))
	if x < 0 {
		x = 0
	}
	if x >= g.NX {
		x = g.NX - 1
	}
	if y < 0 {
		y = 0
	}
	if y >= g.NY {
		y = g.NY - 1
	}
	return x, y
}

// ID maps a point to its cell id y*NX + x.
func (g *Grid) ID(p geo.Point) int {
	x, y := g.Coord(p)
	return y*g.NX + x
}

// CoordOf splits a cell id back into its (x, y) coordinate.
func (g *Grid) CoordOf(id int) (x, y int) { return id % g.NX, id / g.NX }

// GridTrajectory maps a GPS trajectory to its grid trajectory: the sequence
// of cell ids its points fall into (Definition 2). Consecutive duplicates
// are kept — the sequence stays aligned with the GPS points.
func (g *Grid) GridTrajectory(t geo.Trajectory) []int {
	out := make([]int, len(t))
	for i, p := range t {
		out[i] = g.ID(p)
	}
	return out
}

// CompressedGridTrajectory maps a GPS trajectory to its grid trajectory with
// consecutive duplicate cells collapsed — the form used as a cluster key by
// the fast triplet generation (Section IV-F), where trajectories "share the
// same grid trajectory".
func (g *Grid) CompressedGridTrajectory(t geo.Trajectory) []int {
	out := make([]int, 0, len(t))
	prev := -1
	for _, p := range t {
		id := g.ID(p)
		if id != prev {
			out = append(out, id)
			prev = id
		}
	}
	return out
}

// KeyOf serializes a compressed grid trajectory into a map key.
func KeyOf(cells []int) string {
	// Varint-ish packing: cell ids separated by commas. Simple and
	// collision-free.
	b := make([]byte, 0, len(cells)*6)
	for i, c := range cells {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendInt(b, c)
	}
	return string(b)
}

func appendInt(b []byte, v int) []byte {
	if v == 0 {
		return append(b, '0')
	}
	if v < 0 {
		b = append(b, '-')
		v = -v
	}
	var tmp [20]byte
	i := len(tmp)
	for v > 0 {
		i--
		tmp[i] = byte('0' + v%10)
		v /= 10
	}
	return append(b, tmp[i:]...)
}
