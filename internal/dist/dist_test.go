package dist

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"traj2hash/internal/data"
	"traj2hash/internal/geo"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

// randTraj generates a random-walk trajectory with n points.
func randTraj(rng *rand.Rand, n int) geo.Trajectory {
	t := make(geo.Trajectory, n)
	p := geo.Point{X: rng.Float64() * 10, Y: rng.Float64() * 10}
	for i := 0; i < n; i++ {
		p = p.Add(geo.Point{X: rng.NormFloat64(), Y: rng.NormFloat64()})
		t[i] = p
	}
	return t
}

func TestDTWHandComputed(t *testing.T) {
	// a = (0,0),(1,0); b = (0,0),(1,0),(2,0).
	// Optimal path: match (0,0)-(0,0)=0, (1,0)-(1,0)=0, (1,0)-(2,0)=1. DTW=1.
	a := geo.Trajectory{{X: 0}, {X: 1}}
	b := geo.Trajectory{{X: 0}, {X: 1}, {X: 2}}
	if got := DTW(a, b); !almostEqual(got, 1, 1e-12) {
		t.Errorf("DTW = %v, want 1", got)
	}
}

func TestDTWIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randTraj(rng, 20)
	if got := DTW(a, a); !almostEqual(got, 0, 1e-9) {
		t.Errorf("DTW(a,a) = %v", got)
	}
}

func TestDTWSinglePoints(t *testing.T) {
	a := geo.Trajectory{{X: 0, Y: 0}}
	b := geo.Trajectory{{X: 3, Y: 4}}
	if got := DTW(a, b); !almostEqual(got, 5, 1e-12) {
		t.Errorf("DTW single = %v", got)
	}
	// One point vs many: sum of distances (every b point matches the single a point).
	c := geo.Trajectory{{X: 3, Y: 4}, {X: 3, Y: 4}}
	if got := DTW(a, c); !almostEqual(got, 10, 1e-12) {
		t.Errorf("DTW 1-vs-2 = %v", got)
	}
}

func TestDTWEmpty(t *testing.T) {
	a := geo.Trajectory{{X: 1}}
	if got := DTW(nil, a); !math.IsInf(got, 1) {
		t.Errorf("DTW(nil,a) = %v", got)
	}
	if got := DTW(nil, nil); got != 0 {
		t.Errorf("DTW(nil,nil) = %v", got)
	}
}

func TestFrechetHandComputed(t *testing.T) {
	// Parallel segments distance 1 apart: Frechet = 1.
	a := geo.Trajectory{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 2, Y: 0}}
	b := geo.Trajectory{{X: 0, Y: 1}, {X: 1, Y: 1}, {X: 2, Y: 1}}
	if got := Frechet(a, b); !almostEqual(got, 1, 1e-12) {
		t.Errorf("Frechet = %v, want 1", got)
	}
}

func TestFrechetVsMaxPointwise(t *testing.T) {
	// For equal-length aligned trajectories, Frechet <= max pointwise distance.
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 25; trial++ {
		a := randTraj(rng, 15)
		b := randTraj(rng, 15)
		var maxPt float64
		for i := range a {
			if d := a[i].Dist(b[i]); d > maxPt {
				maxPt = d
			}
		}
		if got := Frechet(a, b); got > maxPt+1e-9 {
			t.Errorf("Frechet %v exceeds aligned max %v", got, maxPt)
		}
	}
}

func TestHausdorffHandComputed(t *testing.T) {
	a := geo.Trajectory{{X: 0, Y: 0}, {X: 1, Y: 0}}
	b := geo.Trajectory{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 1, Y: 5}}
	// h(a,b)=0 (all a points in b); h(b,a)=5 from (1,5) to (1,0).
	if got := Hausdorff(a, b); !almostEqual(got, 5, 1e-12) {
		t.Errorf("Hausdorff = %v, want 5", got)
	}
}

func TestHausdorffSubsetZero(t *testing.T) {
	a := geo.Trajectory{{X: 0, Y: 0}, {X: 1, Y: 1}}
	if got := Hausdorff(a, a.Reverse()); !almostEqual(got, 0, 1e-12) {
		t.Errorf("Hausdorff(a, reverse(a)) = %v", got)
	}
}

func TestERPHandComputed(t *testing.T) {
	// ERP with gap at origin; a = (1,0); b = empty: cost = |a - gap| = 1.
	a := geo.Trajectory{{X: 1, Y: 0}}
	if got := ERP(a, nil, geo.Point{}); !almostEqual(got, 1, 1e-12) {
		t.Errorf("ERP vs empty = %v", got)
	}
	// Identical trajectories: 0.
	b := geo.Trajectory{{X: 1, Y: 0}, {X: 2, Y: 0}}
	if got := ERP(b, b, geo.Point{}); !almostEqual(got, 0, 1e-12) {
		t.Errorf("ERP identical = %v", got)
	}
}

func TestERPTriangleInequality(t *testing.T) {
	// ERP is a metric; check the triangle inequality on random triples.
	rng := rand.New(rand.NewSource(3))
	gap := geo.Point{}
	for trial := 0; trial < 30; trial++ {
		a := randTraj(rng, 5+rng.Intn(8))
		b := randTraj(rng, 5+rng.Intn(8))
		c := randTraj(rng, 5+rng.Intn(8))
		ab := ERP(a, b, gap)
		bc := ERP(b, c, gap)
		ac := ERP(a, c, gap)
		if ac > ab+bc+1e-9 {
			t.Errorf("triangle violated: %v > %v + %v", ac, ab, bc)
		}
	}
}

func TestEDRHandComputed(t *testing.T) {
	a := geo.Trajectory{{X: 0}, {X: 10}}
	b := geo.Trajectory{{X: 0}}
	// (0) matches (0), then one deletion.
	if got := EDR(a, b, 0.5); !almostEqual(got, 1, 1e-12) {
		t.Errorf("EDR = %v, want 1", got)
	}
	if got := EDR(a, a, 0.5); got != 0 {
		t.Errorf("EDR identical = %v", got)
	}
}

func TestEDRBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 20; trial++ {
		n, m := 3+rng.Intn(10), 3+rng.Intn(10)
		a := randTraj(rng, n)
		b := randTraj(rng, m)
		got := EDR(a, b, 1.0)
		lo := math.Abs(float64(n - m))
		hi := float64(max(n, m))
		if got < lo-1e-9 || got > hi+1e-9 {
			t.Errorf("EDR %v outside [%v, %v]", got, lo, hi)
		}
	}
}

func TestCDTWMatchesDTWWideBand(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		a := randTraj(rng, 10+rng.Intn(10))
		b := randTraj(rng, 10+rng.Intn(10))
		w := len(a) + len(b) // band wider than the matrix: exact DTW
		if got, want := CDTW(a, b, w), DTW(a, b); !almostEqual(got, want, 1e-9) {
			t.Errorf("CDTW wide band %v != DTW %v", got, want)
		}
	}
}

func TestCDTWUpperBoundsDTW(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 20; trial++ {
		a := randTraj(rng, 20)
		b := randTraj(rng, 20)
		exact := DTW(a, b)
		for _, w := range []int{1, 3, 5} {
			if got := CDTW(a, b, w); got < exact-1e-9 {
				t.Errorf("CDTW(w=%d) %v below exact %v", w, got, exact)
			}
		}
	}
}

func TestCDTWEmpty(t *testing.T) {
	if got := CDTW(nil, nil, 1); got != 0 {
		t.Errorf("CDTW(nil,nil) = %v", got)
	}
	if got := CDTW(nil, geo.Trajectory{{X: 1}}, 1); !math.IsInf(got, 1) {
		t.Errorf("CDTW(nil,a) = %v", got)
	}
}

// --- property tests for the paper's lemmas ---

type trajPair struct{ a, b geo.Trajectory }

func genPair(rng *rand.Rand) trajPair {
	return trajPair{
		a: randTraj(rng, 2+rng.Intn(20)),
		b: randTraj(rng, 2+rng.Intn(20)),
	}
}

// TestLemma1LowerBound checks d(first points) <= DTW and Frechet, and the
// same for last points (Lemma 1).
func TestLemma1LowerBound(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		p := genPair(rng)
		lbF := LowerBoundFirst(p.a, p.b)
		lbL := LowerBoundLast(p.a, p.b)
		lb := LowerBound(p.a, p.b)
		dtw := DTW(p.a, p.b)
		fr := Frechet(p.a, p.b)
		if lbF > dtw+1e-9 || lbL > dtw+1e-9 || lb > dtw+1e-9 {
			t.Fatalf("trial %d: lower bound (%v,%v) exceeds DTW %v", trial, lbF, lbL, dtw)
		}
		if lbF > fr+1e-9 || lbL > fr+1e-9 {
			t.Fatalf("trial %d: lower bound exceeds Frechet %v", trial, fr)
		}
	}
}

// TestLemma2ReverseSymmetry checks D(a, b) == D(reverse(a), reverse(b)) for
// DTW, Frechet, and Hausdorff (Lemma 2).
func TestLemma2ReverseSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 100; trial++ {
		p := genPair(rng)
		ar, br := p.a.Reverse(), p.b.Reverse()
		for _, f := range []Func{DTWDist, FrechetDist, HausdorffDist} {
			fwd := Distance(f, p.a, p.b)
			rev := Distance(f, ar, br)
			if !almostEqual(fwd, rev, 1e-9*math.Max(1, fwd)) {
				t.Fatalf("trial %d %v: forward %v != reversed %v", trial, f, fwd, rev)
			}
		}
	}
}

// TestSymmetry checks D(a, b) == D(b, a) for all distance functions.
func TestSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 100; trial++ {
		p := genPair(rng)
		for _, f := range []Func{DTWDist, FrechetDist, HausdorffDist, ERPDist, EDRDist} {
			ab := Distance(f, p.a, p.b)
			ba := Distance(f, p.b, p.a)
			if !almostEqual(ab, ba, 1e-9*math.Max(1, ab)) {
				t.Fatalf("trial %d %v: %v != %v", trial, f, ab, ba)
			}
		}
	}
}

// TestIdentity checks D(a, a) == 0 for all distance functions.
func TestIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 50; trial++ {
		a := randTraj(rng, 2+rng.Intn(20))
		for _, f := range []Func{DTWDist, FrechetDist, HausdorffDist, ERPDist, EDRDist} {
			if got := Distance(f, a, a); !almostEqual(got, 0, 1e-9) {
				t.Fatalf("%v(a,a) = %v", f, got)
			}
		}
	}
}

// TestFrechetDominatesHausdorff: Hausdorff(a,b) <= Frechet(a,b) always.
func TestFrechetDominatesHausdorff(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		p := genPair(rng)
		h := Hausdorff(p.a, p.b)
		f := Frechet(p.a, p.b)
		if h > f+1e-9 {
			t.Fatalf("trial %d: Hausdorff %v > Frechet %v", trial, h, f)
		}
	}
}

// plainHausdorff is the textbook double loop with no shortcut — the
// reference dist.Hausdorff's kernel must match bit for bit.
func plainHausdorff(a, b geo.Trajectory) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 0
	}
	if len(a) == 0 || len(b) == 0 {
		return math.Inf(1)
	}
	directed := func(a, b geo.Trajectory) float64 {
		var worst float64
		for _, p := range a {
			best := math.Inf(1)
			for _, q := range b {
				if d := p.SqDist(q); d < best {
					best = d
				}
			}
			if best > worst {
				worst = best
			}
		}
		return math.Sqrt(worst)
	}
	return math.Max(directed(a, b), directed(b, a))
}

// checkHausdorff holds Hausdorff(a, b) and both of its kernels — called
// directly, whichever one the dispatch would pick — to plainHausdorff bit
// for bit, in both argument orders; the small kernel on every input its
// column buffer takes. It also holds the adaptive kernel to its worst
// case, the double loop: every point pair at most once per direction.
func checkHausdorff(t *testing.T, name string, a, b geo.Trajectory) {
	t.Helper()
	want := math.Float64bits(plainHausdorff(a, b))
	for _, args := range []struct {
		order string
		x, y  geo.Trajectory
	}{{"a, b", a, b}, {"b, a", b, a}} {
		x, y := args.x, args.y
		if got := math.Float64bits(Hausdorff(x, y)); got != want {
			t.Errorf("%s: Hausdorff(%s) = %#x, plain double loop = %#x", name, args.order, got, want)
		}
		if len(x) == 0 || len(y) == 0 {
			continue
		}
		sq, pairs := hausdorffSq(x, y)
		if got := math.Float64bits(math.Sqrt(sq)); got != want {
			t.Errorf("%s: hausdorffSq(%s) = %#x, plain double loop = %#x", name, args.order, got, want)
		}
		if pairs > 2*len(x)*len(y) {
			t.Errorf("%s: %d point pairs evaluated for %d x %d points, more than the double loop",
				name, pairs, len(x), len(y))
		}
		if min(len(x), len(y)) <= smallCols {
			if got := math.Float64bits(math.Sqrt(hausdorffSqSmall(x, y))); got != want {
				t.Errorf("%s: hausdorffSqSmall(%s) = %#x, plain double loop = %#x", name, args.order, got, want)
			}
		}
	}
}

// zigZag builds the kernel's adversary: b runs along a line, a alternates
// between its two ends — so the index where a point found its minimum is
// the farthest possible start for the next one — while climbing away
// from the line towards its middle, so neither end of a seeds the bound
// and most points raise it only after a full scan.
func zigZag(n, m int) (a, b geo.Trajectory) {
	for j := 0; j < m; j++ {
		b = append(b, geo.Point{X: float64(j)})
	}
	for i := 0; i < n; i++ {
		end := float64(i % 2 * (m - 1))
		rise := 1 + float64(min(i, n-1-i))/float64(n)
		a = append(a, geo.Point{X: end, Y: rise})
	}
	return a, b
}

// TestHausdorffKernelBitIdentical: neither kernel changes a bit of any
// Hausdorff distance — not the small kernel's uint64 compares, not the
// adaptive kernel's running bound shared by both directions, endpoint
// seeds and scan that starts at the previous point's nearest neighbour —
// and the adaptive one never costs more than the double loop. Over
// Porto-like pairs in the shapes GeoPTH meets (equal lengths at 6, 24 and
// 48 points, a trip against a shorter or longer prototype, a one-point
// trip, reversed and self-paired), the degenerate shapes where a break
// fires first, and the zig-zag adversary whose locality hint is wrong at
// every point. Each shape GeoPTH meets is also pinned to its kernel.
func TestHausdorffKernelBitIdentical(t *testing.T) {
	// A moved smallPairs must not route the serving shape (48 × 48) or a
	// long trip onto the O(n·m) kernel, nor scan_100k's 6 × 6 off it.
	for _, tc := range []struct {
		n, m  int
		small bool
	}{
		{6, 6, true}, {12, 12, true}, {5, 48, true}, {8, 48, true}, {1, 48, true}, {1, smallPairs, true},
		{1, smallPairs + 1, false}, {10, 48, false}, {24, 24, false}, {48, 48, false}, {120, 48, false},
	} {
		if got := smallKernel(tc.n, tc.m); got != tc.small {
			t.Errorf("%d x %d points: small kernel %v, want %v", tc.n, tc.m, got, tc.small)
		}
		if got := smallKernel(tc.m, tc.n); got != tc.small {
			t.Errorf("%d x %d points: small kernel %v, want %v", tc.m, tc.n, got, tc.small)
		}
	}

	ts := data.Porto().Generate(40, 3)
	for i := 0; i+1 < len(ts); i++ {
		for _, j := range []int{i + 1, (i + 7) % len(ts), (i + 19) % len(ts)} {
			checkHausdorff(t, "porto", ts[i], ts[j])
			checkHausdorff(t, "porto reversed", ts[j], ts[i].Reverse())
			checkHausdorff(t, "porto 6 vs 6", ts[i].Resample(6), ts[j].Resample(6))
			checkHausdorff(t, "porto 12 vs 12", ts[i].Resample(12), ts[j].Resample(12))
			checkHausdorff(t, "porto resampled", ts[i].Resample(24), ts[j].Resample(24))
			checkHausdorff(t, "porto 48 vs 48", ts[i].Resample(48), ts[j].Resample(48))
			checkHausdorff(t, "porto 44 vs 6", ts[i].Resample(44), ts[j].Resample(6))
			checkHausdorff(t, "porto 120 vs 48", ts[i].Resample(120), ts[j].Resample(48))
		}
		proto := ts[i].Resample(48)
		for n := 1; n <= 5; n++ {
			checkHausdorff(t, "short vs 48", ts[(i+1)%len(ts)].Resample(n), proto)
		}
		for _, n := range []int{6, smallPairs, smallPairs + 1} {
			checkHausdorff(t, "one point vs n", ts[(i+2)%len(ts)].Resample(1), ts[i].Resample(n))
		}
		checkHausdorff(t, "prototype vs itself", proto, proto)
		checkHausdorff(t, "prototype vs its reverse", proto, proto.Reverse())
	}
	p, q := geo.Point{X: 1, Y: 2}, geo.Point{X: 4, Y: 6}
	inf := geo.Point{X: math.Inf(1)}
	long := ts[0]
	dup := append(append(geo.Trajectory{}, long...), long...)
	for _, tc := range []struct {
		name string
		a, b geo.Trajectory
	}{
		{"both empty", nil, nil},
		{"one empty", nil, long},
		{"single vs single", geo.Trajectory{p}, geo.Trajectory{q}},
		{"single vs itself", geo.Trajectory{p}, geo.Trajectory{p}},
		{"single vs long", geo.Trajectory{p}, long},
		{"coincident points", geo.Trajectory{p, p, p}, geo.Trajectory{p, p}},
		{"identical", long, long},
		{"duplicated points", dup, long},
		{"duplicated vs other", dup, ts[1]},
		// Inf − Inf is a negative-sign NaN: as an int64 it would be the
		// smallest distance, as a uint64 it sits above +Inf.
		{"Inf − Inf beside finite pairs", geo.Trajectory{inf, p, q}, geo.Trajectory{inf, q}},
	} {
		checkHausdorff(t, tc.name, tc.a, tc.b)
	}

	for _, shape := range [][2]int{{48, 48}, {44, 6}, {5, 48}, {2, 2}} {
		a, b := zigZag(shape[0], shape[1])
		checkHausdorff(t, "zig-zag", a, b)
		// The adversary must be one: had the hints helped, the a → b pass
		// alone would not have needed every pair.
		if _, pairs := hausdorffSq(a, b); pairs < len(a)*len(b) {
			t.Errorf("zig-zag %d x %d: only %d pairs evaluated; the locality hint is not being defeated",
				len(a), len(b), pairs)
		}
	}
}

// fuzzTrajectories decodes fuzz bytes into two trajectories: the first
// byte says how many of the points go to a, every later byte pair is one
// point. Coordinates are small integers, so ties and coincident points
// are common, with three byte values standing for NaN and the infinities.
func fuzzTrajectories(data []byte) (a, b geo.Trajectory) {
	if len(data) == 0 {
		return nil, nil
	}
	coord := func(c byte) float64 {
		switch c {
		case 0x80:
			return math.NaN()
		case 0x7f:
			return math.Inf(1)
		case 0x81:
			return math.Inf(-1)
		}
		return float64(int8(c))
	}
	var pts geo.Trajectory
	for i := 1; i+1 < len(data); i += 2 {
		pts = append(pts, geo.Point{X: coord(data[i]), Y: coord(data[i+1])})
	}
	na := int(data[0]) % (len(pts) + 1)
	return pts[:na], pts[na:]
}

// FuzzHausdorffMatchesPlain: for any two point lists — empty sides,
// ties, NaN and infinite coordinates included — Hausdorff and each of its
// kernels equal the plain double loop bit for bit and are symmetric in
// their arguments. The committed corpus holds the pair counts around
// smallPairs, a side longer than the small kernel's column buffer, and
// Inf − Inf on both sides.
func FuzzHausdorffMatchesPlain(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2})                                     // a empty
	f.Add([]byte{1, 1, 2, 1, 2})                               // coincident singles
	f.Add([]byte{2, 0, 0, 9, 0, 0, 1, 3, 1, 6, 1, 9, 1})       // 2 vs 4
	f.Add([]byte{3, 0, 1, 5, 2, 0, 3, 0, 0, 1, 0, 2, 0, 3, 0}) // a zig-zags over b
	f.Add([]byte{1, 0x80, 0, 1, 1, 2, 2})                      // NaN point in a
	f.Add([]byte{2, 1, 1, 2, 2, 0x7f, 0, 3, 3})                // +Inf point in b
	f.Add([]byte{1, 0x7f, 0x81, 0x7f, 0x81})                   // Inf − Inf on both sides
	f.Add([]byte{2, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80})       // nothing but NaN
	f.Fuzz(func(t *testing.T, data []byte) {
		a, b := fuzzTrajectories(data)
		checkHausdorff(t, "fuzz", a, b)
	})
}

// TestFrechetNonNegativeAndAchieved: Frechet equals some pointwise distance.
func TestFrechetIsAPointDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 50; trial++ {
		p := genPair(rng)
		f := Frechet(p.a, p.b)
		found := false
		for _, u := range p.a {
			for _, v := range p.b {
				if almostEqual(u.Dist(v), f, 1e-9) {
					found = true
				}
			}
		}
		if !found {
			t.Fatalf("Frechet %v not a pointwise distance", f)
		}
	}
}

func TestParseFunc(t *testing.T) {
	for _, c := range []struct {
		in   string
		want Func
	}{{"dtw", DTWDist}, {"DTW", DTWDist}, {"frechet", FrechetDist}, {"hausdorff", HausdorffDist}, {"erp", ERPDist}, {"edr", EDRDist}} {
		got, err := ParseFunc(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParseFunc(%q) = %v, %v", c.in, got, err)
		}
	}
	if _, err := ParseFunc("nope"); err == nil {
		t.Error("ParseFunc accepted unknown name")
	}
}

func TestFuncString(t *testing.T) {
	if DTWDist.String() != "DTW" || FrechetDist.String() != "Frechet" || HausdorffDist.String() != "Hausdorff" {
		t.Error("unexpected Func names")
	}
	if Func(99).String() == "" {
		t.Error("unknown Func should still format")
	}
}

func TestQuickLowerBoundNeverNegative(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := genPair(rng)
		return LowerBound(p.a, p.b) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// hausdorffFixture is one GeoPTH embed at n points: a Porto trip and the
// 128 prototypes it is measured against, all resampled to n points — 48
// is the serving shape, 6 scan_100k's.
func hausdorffFixture(n int) (q geo.Trajectory, protos []geo.Trajectory) {
	ts := data.Porto().Generate(129, 5)
	for i := range ts {
		ts[i] = ts[i].Resample(n)
	}
	return ts[0], ts[1:]
}

// hausdorffAllocs is the heap allocations of the fixture's 128 distances.
func hausdorffAllocs(n int) float64 {
	q, protos := hausdorffFixture(n)
	var sink float64
	return testing.AllocsPerRun(20, func() {
		for _, p := range protos {
			sink += Hausdorff(q, p)
		}
	})
}

// benchHausdorff measures the fixture's 128 distances at n points.
func benchHausdorff(b *testing.B, n int) {
	q, protos := hausdorffFixture(n)
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		for _, p := range protos {
			sink += Hausdorff(q, p)
		}
	}
	_ = sink
}

// TestHotpathHausdorffZeroAlloc locks in the //perf:hotpath contract on
// the adaptive Hausdorff kernel.
func TestHotpathHausdorffZeroAlloc(t *testing.T) {
	if allocs := hausdorffAllocs(48); allocs != 0 {
		t.Fatalf("Hausdorff allocated %v per 128 distances at 48 points, want 0", allocs)
	}
}

// TestHotpathHausdorff6ZeroAlloc locks in the //perf:hotpath contract on
// the small Hausdorff kernel.
func TestHotpathHausdorff6ZeroAlloc(t *testing.T) {
	if allocs := hausdorffAllocs(6); allocs != 0 {
		t.Fatalf("Hausdorff allocated %v per 128 distances at 6 points, want 0", allocs)
	}
}

// BenchmarkHotpathHausdorff measures the 128 distances of the fixture at
// 48 points, on the adaptive kernel.
func BenchmarkHotpathHausdorff(b *testing.B) { benchHausdorff(b, 48) }

// BenchmarkHotpathHausdorff6 measures them at 6 points, on the small
// kernel: a scan_100k embed.
func BenchmarkHotpathHausdorff6(b *testing.B) { benchHausdorff(b, 6) }

// BenchmarkHausdorffKernels times one distance per op on each kernel over
// the shapes around smallPairs — the measurement that constant cites. Each
// op pairs a different trip with a different prototype, 128 Porto trips
// of each, as a GeoPTH embed does: a fixed trip would let the adaptive
// kernel's branches be learnt. The small kernel's shorter side is capped
// at smallCols, so the shapes past the crossover grow the longer side.
func BenchmarkHausdorffKernels(b *testing.B) {
	ts := data.Porto().Generate(256, 5)
	kernels := []struct {
		name string
		sq   func(a, b geo.Trajectory) float64
	}{
		{"adaptive", func(a, b geo.Trajectory) float64 { sq, _ := hausdorffSq(a, b); return sq }},
		{"small", hausdorffSqSmall},
	}
	for _, shape := range [][2]int{{6, 6}, {8, 8}, {12, 12}, {16, 16}, {20, 20}, {5, 48}, {8, 48}, {10, 48}, {20, 24}, {20, 32}} {
		trips, protos := make([]geo.Trajectory, 128), make([]geo.Trajectory, 128)
		for i := range trips {
			trips[i], protos[i] = ts[i].Resample(shape[0]), ts[128+i].Resample(shape[1])
		}
		for _, k := range kernels {
			b.Run(fmt.Sprintf("%s/%dx%d", k.name, shape[0], shape[1]), func(b *testing.B) {
				var sink float64
				for i := 0; i < b.N; i++ {
					sink += k.sq(trips[i&127], protos[(i>>7)&127])
				}
				_ = sink
			})
		}
	}
}
