package geo

//lint:file-ignore floatcompare every float equality in this file guards a division or resample step against an exactly-degenerate input (zero length, zero variance); near-zero values still compute finitely, so exact sentinels are the intended semantics

import (
	"errors"
	"fmt"
	"math"
)

// Trajectory is a sequence of planar points, the spatial part of a GPS
// trajectory (Definition 1; the paper discards timestamps).
type Trajectory []Point

// ErrTooShort is returned by Validate for trajectories below the minimum
// length accepted by the preprocessing pipeline.
var ErrTooShort = errors.New("geo: trajectory has fewer points than required")

// ErrNonFinite is returned by Validate when a coordinate is NaN or infinite.
var ErrNonFinite = errors.New("geo: trajectory contains a non-finite coordinate")

// Len returns the number of points.
func (t Trajectory) Len() int { return len(t) }

// Reverse returns a new trajectory with the point order reversed — the T^r of
// Definition 4. The receiver is not modified.
func (t Trajectory) Reverse() Trajectory {
	r := make(Trajectory, len(t))
	for i, p := range t {
		r[len(t)-1-i] = p
	}
	return r
}

// Validate checks the trajectory against the preprocessing rules of
// Section V-A1: at least minPoints points and finite coordinates.
func (t Trajectory) Validate(minPoints int) error {
	if len(t) < minPoints {
		return fmt.Errorf("%w: got %d, need %d", ErrTooShort, len(t), minPoints)
	}
	for i, p := range t {
		if !p.IsFinite() {
			return fmt.Errorf("%w: point %d is %v", ErrNonFinite, i, p)
		}
	}
	return nil
}

// Length returns the travelled path length (sum of consecutive segment
// lengths).
func (t Trajectory) Length() float64 {
	var sum float64
	for i := 1; i < len(t); i++ {
		sum += t[i-1].Dist(t[i])
	}
	return sum
}

// BoundingBox returns the axis-aligned bounding box of the trajectory.
// It panics on an empty trajectory.
func (t Trajectory) BoundingBox() (min, max Point) {
	min = t[0]
	max = t[0]
	for _, p := range t[1:] {
		min.X = math.Min(min.X, p.X)
		min.Y = math.Min(min.Y, p.Y)
		max.X = math.Max(max.X, p.X)
		max.Y = math.Max(max.Y, p.Y)
	}
	return min, max
}

// Centroid returns the mean point. It panics on an empty trajectory.
func (t Trajectory) Centroid() Point {
	var c Point
	for _, p := range t {
		c.X += p.X
		c.Y += p.Y
	}
	inv := 1.0 / float64(len(t))
	return Point{c.X * inv, c.Y * inv}
}

// Resample returns a trajectory with exactly n points, linearly interpolated
// at equal arc-length intervals along the original path. Degenerate inputs
// (single point or zero total length) yield n copies of the first point.
func (t Trajectory) Resample(n int) Trajectory {
	if n <= 0 {
		return Trajectory{}
	}
	if len(t) == 0 {
		return Trajectory{}
	}
	total := t.Length()
	out := make(Trajectory, n)
	if len(t) == 1 || total == 0 || n == 1 {
		for i := range out {
			out[i] = t[0]
		}
		return out
	}
	step := total / float64(n-1)
	out[0] = t[0]
	seg := 0
	segStart := 0.0
	segLen := t[0].Dist(t[1])
	for i := 1; i < n; i++ {
		target := step * float64(i)
		for segStart+segLen < target && seg < len(t)-2 {
			segStart += segLen
			seg++
			segLen = t[seg].Dist(t[seg+1])
		}
		if segLen == 0 {
			out[i] = t[seg]
			continue
		}
		frac := (target - segStart) / segLen
		if frac > 1 {
			frac = 1
		}
		out[i] = t[seg].Lerp(t[seg+1], frac)
	}
	out[n-1] = t[len(t)-1]
	return out
}

// Stats holds the per-coordinate mean and standard deviation of a set of
// trajectories, used for the Gaussian normalization of Equation 10.
type Stats struct {
	MeanX, MeanY float64
	StdX, StdY   float64
}

// ComputeStats estimates coordinate statistics over all points of all
// trajectories. Standard deviations of zero are clamped to 1 so that
// normalization is always well defined.
func ComputeStats(ts []Trajectory) Stats {
	var n float64
	var sx, sy, sxx, syy float64
	for _, t := range ts {
		for _, p := range t {
			sx += p.X
			sy += p.Y
			sxx += p.X * p.X
			syy += p.Y * p.Y
			n++
		}
	}
	if n == 0 {
		return Stats{StdX: 1, StdY: 1}
	}
	mx := sx / n
	my := sy / n
	vx := sxx/n - mx*mx
	vy := syy/n - my*my
	if vx < 0 {
		vx = 0
	}
	if vy < 0 {
		vy = 0
	}
	st := Stats{MeanX: mx, MeanY: my, StdX: math.Sqrt(vx), StdY: math.Sqrt(vy)}
	if st.StdX == 0 {
		st.StdX = 1
	}
	if st.StdY == 0 {
		st.StdY = 1
	}
	return st
}

// Normalize returns the point mapped to zero mean and unit variance under the
// statistics — the Normalize(.) of Equation 10.
func (s Stats) Normalize(p Point) Point {
	return Point{X: (p.X - s.MeanX) / s.StdX, Y: (p.Y - s.MeanY) / s.StdY}
}
