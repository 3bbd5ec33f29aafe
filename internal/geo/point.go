// Package geo provides the basic geometric types used throughout the
// repository: GPS points, trajectories, bounding boxes, and the elementary
// operations the paper's preliminaries (Section III) rely on — Euclidean
// point distance, trajectory reversal (Definition 4), and Gaussian
// normalization of coordinates (Equation 10).
//
// Coordinates are stored as (X, Y) pairs. For synthetic datasets these are
// meters in a local planar frame; for raw GPS data they are (longitude,
// latitude) projected with ProjectEquirectangular before any distance is
// computed, so that all distance functions operate on a locally Euclidean
// plane, matching the preprocessing of NeuTraj that the paper follows.
package geo

import (
	"fmt"
	"math"
)

// Point is a single location in a planar frame.
type Point struct {
	X float64 // easting / longitude-derived coordinate
	Y float64 // northing / latitude-derived coordinate
}

// Dist returns the Euclidean distance between two points, the d(.,.) of
// Definition 3.
func (p Point) Dist(q Point) float64 {
	dx := p.X - q.X
	dy := p.Y - q.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// SqDist returns the squared Euclidean distance, useful when only relative
// order matters and the square root can be avoided.
func (p Point) SqDist(q Point) float64 {
	dx := p.X - q.X
	dy := p.Y - q.Y
	return dx*dx + dy*dy
}

// Add returns p + q componentwise.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Lerp linearly interpolates between p and q: result = p + t*(q-p).
func (p Point) Lerp(q Point, t float64) Point {
	return Point{p.X + t*(q.X-p.X), p.Y + t*(q.Y-p.Y)}
}

// IsFinite reports whether both coordinates are finite numbers.
func (p Point) IsFinite() bool {
	return !math.IsNaN(p.X) && !math.IsInf(p.X, 0) &&
		!math.IsNaN(p.Y) && !math.IsInf(p.Y, 0)
}

func (p Point) String() string { return fmt.Sprintf("(%.3f, %.3f)", p.X, p.Y) }

// earthRadiusMeters is the mean Earth radius used by the equirectangular
// projection.
const earthRadiusMeters = 6371000.0

// ProjectEquirectangular converts a (longitude, latitude) pair in degrees
// into local planar meters relative to a reference latitude refLat (degrees).
// Over city-scale extents (tens of kilometers) the distortion is negligible,
// which is the same assumption the trajectory-similarity literature makes
// when it grids a city into 50 m cells.
func ProjectEquirectangular(lon, lat, refLat float64) Point {
	rad := math.Pi / 180.0
	x := earthRadiusMeters * lon * rad * math.Cos(refLat*rad)
	y := earthRadiusMeters * lat * rad
	return Point{X: x, Y: y}
}
