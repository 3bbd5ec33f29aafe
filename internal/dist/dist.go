// Package dist implements the exact trajectory distance functions of the
// paper's preliminaries (Section III, Definition 3) and Related Work:
//
//   - DTW (dynamic time warping)
//   - the discrete Fréchet distance
//   - the Hausdorff distance
//   - ERP (edit distance with real penalty)
//   - EDR (edit distance on real sequences)
//   - cDTW (Sakoe–Chiba band constrained DTW, the traditional fast
//     comparator cited in Related Work)
//
// plus the first/last-point lower bounds of Lemma 1, parallel pairwise
// distance-matrix computation, and the distance→similarity transform
// S_ij = exp(-θ·D_ij)/max(exp(-θ·D)) used as training supervision
// (Section IV-F).
//
// All dynamic programs run in O(n·m) time and O(min(n,m)) memory via
// rolling rows, so ground-truth computation for seed sets is practical.
package dist

import (
	"fmt"
	"math"

	"traj2hash/internal/geo"
)

// Func identifies a trajectory distance function.
type Func int

// The supported distance functions.
const (
	DTWDist Func = iota
	FrechetDist
	HausdorffDist
	ERPDist
	EDRDist
)

// String returns the conventional name of the distance function.
func (f Func) String() string {
	switch f {
	case DTWDist:
		return "DTW"
	case FrechetDist:
		return "Frechet"
	case HausdorffDist:
		return "Hausdorff"
	case ERPDist:
		return "ERP"
	case EDRDist:
		return "EDR"
	default:
		return fmt.Sprintf("Func(%d)", int(f))
	}
}

// ParseFunc converts a name ("dtw", "frechet", "hausdorff", "erp", "edr")
// into a Func.
func ParseFunc(name string) (Func, error) {
	switch name {
	case "dtw", "DTW":
		return DTWDist, nil
	case "frechet", "Frechet", "fréchet":
		return FrechetDist, nil
	case "hausdorff", "Hausdorff":
		return HausdorffDist, nil
	case "erp", "ERP":
		return ERPDist, nil
	case "edr", "EDR":
		return EDRDist, nil
	default:
		return 0, fmt.Errorf("dist: unknown distance function %q", name)
	}
}

// Distance computes f between two trajectories. ERP uses the origin as its
// gap point and EDR uses a matching threshold of 1.0 (appropriate for
// normalized coordinates); use the specific functions directly to control
// those parameters.
func Distance(f Func, a, b geo.Trajectory) float64 {
	switch f {
	case DTWDist:
		return DTW(a, b)
	case FrechetDist:
		return Frechet(a, b)
	case HausdorffDist:
		return Hausdorff(a, b)
	case ERPDist:
		return ERP(a, b, geo.Point{})
	case EDRDist:
		return EDR(a, b, 1.0)
	default:
		panic(fmt.Sprintf("dist: unknown Func %d", int(f)))
	}
}

// DTW returns the dynamic time warping distance between a and b following
// the recurrence of Equation 1:
//
//	D[i][j] = min(D[i-1][j], D[i][j-1], D[i-1][j-1]) + d(a_i, b_j)
//
// Empty inputs: DTW with one empty side is +Inf (no warping path exists);
// two empty trajectories have distance 0.
func DTW(a, b geo.Trajectory) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 0
	}
	if len(a) == 0 || len(b) == 0 {
		return math.Inf(1)
	}
	// Keep b the shorter side so the rolling rows are minimal.
	if len(b) > len(a) {
		a, b = b, a
	}
	m := len(b)
	prev := make([]float64, m)
	cur := make([]float64, m)

	// First row: only horizontal moves.
	prev[0] = a[0].Dist(b[0])
	for j := 1; j < m; j++ {
		prev[j] = prev[j-1] + a[0].Dist(b[j])
	}
	for i := 1; i < len(a); i++ {
		cur[0] = prev[0] + a[i].Dist(b[0])
		for j := 1; j < m; j++ {
			best := prev[j] // insertion
			if prev[j-1] < best {
				best = prev[j-1] // match
			}
			if cur[j-1] < best {
				best = cur[j-1] // deletion
			}
			cur[j] = best + a[i].Dist(b[j])
		}
		prev, cur = cur, prev
	}
	return prev[m-1]
}

// CDTW returns DTW constrained to a Sakoe–Chiba band of half-width w: cell
// (i, j) is admissible only when |i·m/n − j| ≤ w after index scaling. This is
// the classical fast approximation discussed in Related Work [26]–[28].
// A band too narrow to connect the corners returns +Inf.
func CDTW(a, b geo.Trajectory, w int) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 0
	}
	if len(a) == 0 || len(b) == 0 {
		return math.Inf(1)
	}
	n, m := len(a), len(b)
	inf := math.Inf(1)
	prev := make([]float64, m)
	cur := make([]float64, m)

	band := func(i int) (lo, hi int) {
		// Scale the diagonal for unequal lengths, then widen by w.
		c := i * (m - 1)
		if n > 1 {
			c /= (n - 1)
		}
		lo = c - w
		hi = c + w
		if lo < 0 {
			lo = 0
		}
		if hi > m-1 {
			hi = m - 1
		}
		return lo, hi
	}

	for j := range prev {
		prev[j] = inf
	}
	lo0, hi0 := band(0)
	if lo0 == 0 {
		prev[0] = a[0].Dist(b[0])
		for j := 1; j <= hi0; j++ {
			prev[j] = prev[j-1] + a[0].Dist(b[j])
		}
	}
	for i := 1; i < n; i++ {
		for j := range cur {
			cur[j] = inf
		}
		lo, hi := band(i)
		for j := lo; j <= hi; j++ {
			best := prev[j]
			if j > 0 {
				if prev[j-1] < best {
					best = prev[j-1]
				}
				if cur[j-1] < best {
					best = cur[j-1]
				}
			}
			if math.IsInf(best, 1) {
				continue
			}
			cur[j] = best + a[i].Dist(b[j])
		}
		prev, cur = cur, prev
	}
	return prev[m-1]
}

// Frechet returns the discrete Fréchet distance following the recurrence of
// Equation 1:
//
//	F[i][j] = max(min(F[i-1][j], F[i][j-1], F[i-1][j-1]), d(a_i, b_j))
//
// Empty-side conventions match DTW.
func Frechet(a, b geo.Trajectory) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 0
	}
	if len(a) == 0 || len(b) == 0 {
		return math.Inf(1)
	}
	if len(b) > len(a) {
		a, b = b, a
	}
	m := len(b)
	prev := make([]float64, m)
	cur := make([]float64, m)

	prev[0] = a[0].Dist(b[0])
	for j := 1; j < m; j++ {
		prev[j] = math.Max(prev[j-1], a[0].Dist(b[j]))
	}
	for i := 1; i < len(a); i++ {
		cur[0] = math.Max(prev[0], a[i].Dist(b[0]))
		for j := 1; j < m; j++ {
			best := prev[j]
			if prev[j-1] < best {
				best = prev[j-1]
			}
			if cur[j-1] < best {
				best = cur[j-1]
			}
			d := a[i].Dist(b[j])
			if d > best {
				cur[j] = d
			} else {
				cur[j] = best
			}
		}
		prev, cur = cur, prev
	}
	return prev[m-1]
}

// Hausdorff returns the (symmetric) Hausdorff distance
// max(h(a, b), h(b, a)) where h(a, b) = max_i min_j d(a_i, b_j).
//
// Two exact kernels compute it and agree bit for bit; the point-pair count
// len(a)·len(b) picks one (smallKernel).
func Hausdorff(a, b geo.Trajectory) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 0
	}
	if len(a) == 0 || len(b) == 0 {
		return math.Inf(1)
	}
	if smallKernel(len(a), len(b)) {
		return math.Sqrt(hausdorffSqSmall(a, b))
	}
	sq, _ := hausdorffSq(a, b)
	return math.Sqrt(sq)
}

// smallPairs is the crossover between Hausdorff's kernels, in point pairs:
// up to it every pair is evaluated (hausdorffSqSmall), above it pairs are
// skipped (hausdorffSq). Nanoseconds per distance, fastest of 20 runs of
// BenchmarkHausdorffKernels (Porto trips against Porto prototypes, a new
// pair every op) on a 2-core Xeon:
//
//	shape    pairs  adaptive  small
//	6 × 6       36       213     52
//	8 × 8       64       262     87
//	12 × 12    144       387    180
//	16 × 16    256       483    316
//	20 × 20    400       600    486
//	5 × 48     240       574    311
//	8 × 48     384       653    492
//	10 × 48    480       704    611
//	20 × 24    480       582    615
//	20 × 32    640       863    831
//
// Squares cross just above 20 × 20 (with the column buffer widened to 32,
// 22 × 22 and 24 × 24 went to the adaptive kernel by 2 % and 8 %); thin
// shapes cross later, since the adaptive kernel's cost follows the points
// and the small one's the pairs. At 48 points GeoPTH's shapes start at
// 10 × 48 on preprocessed trips (data.MinPoints) and stay adaptive.
const smallPairs = 400

// smallCols is the column buffer of hausdorffSqSmall: the shorter side of
// an n × m input with n·m ≤ smallPairs has at most ⌊√smallPairs⌋ points.
const smallCols = 20

// The build fails (a negative uint constant) if smallPairs outgrows the
// buffer: (smallCols+1)² must exceed it.
const _ = uint((smallCols+1)*(smallCols+1) - smallPairs - 1)

// smallKernel reports whether Hausdorff runs hausdorffSqSmall on an
// n × m input rather than hausdorffSq.
func smallKernel(n, m int) bool { return n*m <= smallPairs }

// hausdorffSqSmall is the kernel of Hausdorff in squared units for small,
// non-empty inputs whose shorter side has at most smallCols points: one
// pass over the whole n × m matrix keeps every row minimum and every
// column minimum at once, so each pair is evaluated once and nothing
// branches on a distance. Rows go two at a time, sharing each column's
// point and minimum (an odd last row is paired with itself).
//
// Minima and maxima compare the IEEE bit patterns of the squared
// distances as uint64, which the compiler turns into conditional moves.
// That order is the float order for everything SqDist returns: for
// d ≥ +0 (a sum of squares is never -0) the bit patterns rise with d,
// +Inf sits above every finite d, and every NaN — including the
// negative-sign NaN that Inf − Inf gives on amd64 — sits above +Inf. So
// a NaN never becomes a minimum started at +Inf, just as `d < best` never
// admits one in the plain double loop, and no NaN check is needed.
//
//perf:hotpath a GeoPTH embed at 6 points is 2 x HashBits of these and nothing else; a branch, a bounds check or an allocation per pair is most of what one costs
func hausdorffSqSmall(a, b geo.Trajectory) float64 {
	// Hausdorff is symmetric: the shorter side goes on the columns.
	if len(b) > len(a) {
		a, b = b, a
	}
	inf := math.Float64bits(math.Inf(1))
	var buf [smallCols]uint64
	cols := buf[:len(b)]
	for j := range cols {
		cols[j] = inf
	}
	var worst uint64 // the bits of +0
	for rows := a; len(rows) > 0; {
		p0, p1 := rows[0], rows[0]
		if len(rows) > 1 {
			p1, rows = rows[1], rows[2:]
		} else {
			rows = rows[1:]
		}
		row0, row1 := inf, inf
		for j, q := range b {
			d0 := math.Float64bits(p0.SqDist(q))
			d1 := math.Float64bits(p1.SqDist(q))
			row0, row1 = min(row0, d0), min(row1, d1)
			cols[j] = min(cols[j], d0, d1)
		}
		worst = max(worst, row0, row1)
	}
	for _, c := range cols {
		worst = max(worst, c)
	}
	return math.Float64frombits(worst)
}

// hausdorffSq is the kernel of Hausdorff in squared units over two
// non-empty trajectories, the one Hausdorff runs above smallPairs; pairs
// counts the point pairs it evaluated.
//
// A point whose running minimum has dropped to the outer maximum worst
// can no longer raise it, so its scan stops there (the early break). The
// result is a max over points of a min over the same SqDist values
// whatever is skipped that way, which makes three orderings free, each
// chosen so the break fires sooner:
//
//  1. worst runs across both directions instead of restarting at 0 for
//     h(b, a) — max(h(a, b), h(b, a)) is one maximum over all points;
//  2. the first and last point of each side are scanned before the points
//     between them: a curve's farthest point is usually an end, so worst
//     starts near its final value;
//  3. a point's scan starts where the previous point of its side found
//     its minimum and expands outward (at, at+1, at-1, ...): consecutive
//     points have neighbouring nearest points, so the first probe is
//     usually already below worst.
//
// Every point is still scanned once and a wrong hint costs nothing but
// order — each index is probed at most once per scan — so the worst case
// is the plain double loop.
//
//perf:hotpath a GeoPTH embed at 48 points is 2 x HashBits of these and nothing else, so it is the served search's largest owned cost; an allocation or a bounds check per probed pair would give the saved pairs back
func hausdorffSq(a, b geo.Trajectory) (worst float64, pairs int) {
	// Each side splits into its first point, its last and the rest between
	// them, so every point is scanned exactly once (a one-point side has
	// no last, a two-point side nothing between).
	aRest, bRest := a[1:], b[1:]
	aCut, bCut := max(len(aRest)-1, 0), max(len(bRest)-1, 0)
	aFirst, aLast, aMid := a[:1], aRest[aCut:], aRest[:aCut]
	bFirst, bLast, bMid := b[:1], bRest[bCut:], bRest[:bCut]
	for pass := 0; pass < 6; pass++ {
		from, to := aFirst, b
		switch pass {
		case 1:
			from = aLast
		case 2:
			from, to = bFirst, a
		case 3:
			from, to = bLast, a
		case 4:
			from = aMid
		case 5:
			from, to = bMid, a
		}
		at := 0
		for _, p := range from {
			best := math.Inf(1)
			// One unsigned comparison per probe is both the loop's range
			// test and the proof that lets the compiler drop the bounds
			// check: an index that walked off either end wraps above len.
			for lo, hi := at, at+1; uint(lo) < uint(len(to)) || uint(hi) < uint(len(to)); lo, hi = lo-1, hi+1 {
				if uint(lo) < uint(len(to)) {
					pairs++
					if d := p.SqDist(to[lo]); d < best {
						best, at = d, lo
						if best <= worst {
							break
						}
					}
				}
				if uint(hi) < uint(len(to)) {
					pairs++
					if d := p.SqDist(to[hi]); d < best {
						best, at = d, hi
						if best <= worst {
							break
						}
					}
				}
			}
			if best > worst {
				worst = best
			}
		}
	}
	return worst, pairs
}

// ERP returns the Edit distance with Real Penalty [17] using gap as the
// reference point g: the cost of aligning a point against a gap is its
// distance to g, making ERP a metric.
func ERP(a, b geo.Trajectory, gap geo.Point) float64 {
	n, m := len(a), len(b)
	prev := make([]float64, m+1)
	cur := make([]float64, m+1)
	prev[0] = 0
	for j := 1; j <= m; j++ {
		prev[j] = prev[j-1] + b[j-1].Dist(gap)
	}
	for i := 1; i <= n; i++ {
		cur[0] = prev[0] + a[i-1].Dist(gap)
		for j := 1; j <= m; j++ {
			match := prev[j-1] + a[i-1].Dist(b[j-1])
			delA := prev[j] + a[i-1].Dist(gap)
			delB := cur[j-1] + b[j-1].Dist(gap)
			cur[j] = math.Min(match, math.Min(delA, delB))
		}
		prev, cur = cur, prev
	}
	return prev[m]
}

// EDR returns the Edit Distance on Real sequences: the minimum number of
// edit operations to transform a into b, where two points "match" when both
// coordinate differences are within eps.
func EDR(a, b geo.Trajectory, eps float64) float64 {
	n, m := len(a), len(b)
	prev := make([]float64, m+1)
	cur := make([]float64, m+1)
	for j := 0; j <= m; j++ {
		prev[j] = float64(j)
	}
	for i := 1; i <= n; i++ {
		cur[0] = float64(i)
		for j := 1; j <= m; j++ {
			var sub float64
			if math.Abs(a[i-1].X-b[j-1].X) > eps || math.Abs(a[i-1].Y-b[j-1].Y) > eps {
				sub = 1
			}
			cur[j] = math.Min(prev[j-1]+sub, math.Min(prev[j]+1, cur[j-1]+1))
		}
		prev, cur = cur, prev
	}
	return prev[m]
}

// LowerBoundFirst returns the Euclidean distance between the first points of
// a and b — by Lemma 1 a lower bound of both DTW(a, b) and Frechet(a, b).
func LowerBoundFirst(a, b geo.Trajectory) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	return a[0].Dist(b[0])
}

// LowerBoundLast returns the Euclidean distance between the last points of
// a and b, the symmetric lower bound of Lemma 1.
func LowerBoundLast(a, b geo.Trajectory) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	return a[len(a)-1].Dist(b[len(b)-1])
}

// LowerBound returns the tighter of the first-point and last-point lower
// bounds.
func LowerBound(a, b geo.Trajectory) float64 {
	return math.Max(LowerBoundFirst(a, b), LowerBoundLast(a, b))
}
