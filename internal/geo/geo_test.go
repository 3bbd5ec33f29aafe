package geo

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestPointDist(t *testing.T) {
	cases := []struct {
		p, q Point
		want float64
	}{
		{Point{0, 0}, Point{3, 4}, 5},
		{Point{1, 1}, Point{1, 1}, 0},
		{Point{-1, -1}, Point{2, 3}, 5},
	}
	for _, c := range cases {
		if got := c.p.Dist(c.q); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Dist(%v, %v) = %v, want %v", c.p, c.q, got, c.want)
		}
		if got := c.p.SqDist(c.q); !almostEqual(got, c.want*c.want, 1e-9) {
			t.Errorf("SqDist(%v, %v) = %v, want %v", c.p, c.q, got, c.want*c.want)
		}
	}
}

func TestPointDistSymmetry(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		p := Point{clip(ax), clip(ay)}
		q := Point{clip(bx), clip(by)}
		return almostEqual(p.Dist(q), q.Dist(p), 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// clip keeps quick-generated floats in a sane range and finite.
func clip(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return math.Mod(x, 1e6)
}

func TestPointArith(t *testing.T) {
	p := Point{1, 2}
	q := Point{3, -4}
	if got := p.Add(q); got != (Point{4, -2}) {
		t.Errorf("Add = %v", got)
	}
	if got := p.Lerp(q, 0.5); got != (Point{2, -1}) {
		t.Errorf("Lerp = %v", got)
	}
	if got := p.Lerp(q, 0); got != p {
		t.Errorf("Lerp(0) = %v", got)
	}
	if got := p.Lerp(q, 1); got != q {
		t.Errorf("Lerp(1) = %v", got)
	}
}

func TestIsFinite(t *testing.T) {
	if !(Point{1, 2}).IsFinite() {
		t.Error("finite point reported non-finite")
	}
	bad := []Point{{math.NaN(), 0}, {0, math.NaN()}, {math.Inf(1), 0}, {0, math.Inf(-1)}}
	for _, p := range bad {
		if p.IsFinite() {
			t.Errorf("%v reported finite", p)
		}
	}
}

func TestProjectEquirectangular(t *testing.T) {
	// One degree of latitude is ~111.19 km everywhere.
	a := ProjectEquirectangular(0, 0, 41)
	b := ProjectEquirectangular(0, 1, 41)
	if d := a.Dist(b); !almostEqual(d, 111194.9, 50) {
		t.Errorf("1 degree latitude = %v m, want ~111195", d)
	}
	// One degree of longitude at latitude 41 is ~83.9 km.
	c := ProjectEquirectangular(1, 0, 41)
	if d := a.Dist(c); !almostEqual(d, 111194.9*math.Cos(41*math.Pi/180), 100) {
		t.Errorf("1 degree longitude at 41N = %v m", d)
	}
}

func TestReverse(t *testing.T) {
	tr := Trajectory{{0, 0}, {1, 1}, {2, 2}, {3, 3}}
	r := tr.Reverse()
	if r[0] != (Point{3, 3}) || r[3] != (Point{0, 0}) {
		t.Errorf("Reverse = %v", r)
	}
	// Receiver untouched.
	if tr[0] != (Point{0, 0}) {
		t.Error("Reverse modified receiver")
	}
}

func TestReverseInvolution(t *testing.T) {
	f := func(raw []float64) bool {
		tr := randomTraj(raw)
		rr := tr.Reverse().Reverse()
		if len(rr) != len(tr) {
			return false
		}
		for i := range tr {
			if tr[i] != rr[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// randomTraj builds a trajectory from a raw float slice, pairing values.
func randomTraj(raw []float64) Trajectory {
	tr := make(Trajectory, 0, len(raw)/2)
	for i := 0; i+1 < len(raw); i += 2 {
		tr = append(tr, Point{clip(raw[i]), clip(raw[i+1])})
	}
	return tr
}

func TestValidate(t *testing.T) {
	short := Trajectory{{0, 0}}
	if err := short.Validate(10); !errors.Is(err, ErrTooShort) {
		t.Errorf("want ErrTooShort, got %v", err)
	}
	bad := Trajectory{{0, 0}, {math.NaN(), 1}}
	if err := bad.Validate(1); !errors.Is(err, ErrNonFinite) {
		t.Errorf("want ErrNonFinite, got %v", err)
	}
	ok := make(Trajectory, 10)
	if err := ok.Validate(10); err != nil {
		t.Errorf("valid trajectory rejected: %v", err)
	}
}

func TestLength(t *testing.T) {
	tr := Trajectory{{0, 0}, {3, 4}, {3, 4}}
	if got := tr.Length(); !almostEqual(got, 5, 1e-12) {
		t.Errorf("Length = %v", got)
	}
	if got := (Trajectory{}).Length(); got != 0 {
		t.Errorf("empty Length = %v", got)
	}
}

func TestBoundingBoxAndCentroid(t *testing.T) {
	tr := Trajectory{{0, 10}, {-5, 2}, {7, 4}}
	min, max := tr.BoundingBox()
	if min != (Point{-5, 2}) || max != (Point{7, 10}) {
		t.Errorf("BoundingBox = %v %v", min, max)
	}
	c := tr.Centroid()
	if !almostEqual(c.X, 2.0/3.0, 1e-12) || !almostEqual(c.Y, 16.0/3.0, 1e-12) {
		t.Errorf("Centroid = %v", c)
	}
}

func TestResample(t *testing.T) {
	tr := Trajectory{{0, 0}, {10, 0}}
	rs := tr.Resample(5)
	if len(rs) != 5 {
		t.Fatalf("len = %d", len(rs))
	}
	for i, p := range rs {
		want := Point{2.5 * float64(i), 0}
		if !almostEqual(p.X, want.X, 1e-9) || !almostEqual(p.Y, 0, 1e-9) {
			t.Errorf("rs[%d] = %v, want %v", i, p, want)
		}
	}
	// Endpooints preserved on irregular input.
	irr := Trajectory{{0, 0}, {1, 5}, {2, 1}, {9, 9}}
	rs = irr.Resample(7)
	if rs[0] != irr[0] || rs[6] != irr[3] {
		t.Errorf("endpoints not preserved: %v %v", rs[0], rs[6])
	}
	// Degenerate cases.
	if got := (Trajectory{{1, 1}}).Resample(3); len(got) != 3 || got[2] != (Point{1, 1}) {
		t.Errorf("single-point resample = %v", got)
	}
	if got := (Trajectory{}).Resample(3); len(got) != 0 {
		t.Errorf("empty resample = %v", got)
	}
	if got := tr.Resample(0); len(got) != 0 {
		t.Errorf("n=0 resample = %v", got)
	}
	if got := tr.Resample(1); len(got) != 1 {
		t.Errorf("n=1 resample = %v", got)
	}
}

func TestResampleLengthPreserved(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		tr := make(Trajectory, 10+rng.Intn(20))
		p := Point{}
		for i := range tr {
			p = p.Add(Point{rng.NormFloat64(), rng.NormFloat64()})
			tr[i] = p
		}
		rs := tr.Resample(100)
		// A dense resample approximately preserves path length (sharp kinks
		// in a random walk shave a few percent off).
		if ratio := rs.Length() / tr.Length(); ratio < 0.85 || ratio > 1.001 {
			t.Errorf("trial %d: length ratio %v", trial, ratio)
		}
	}
}

func TestStatsNormalize(t *testing.T) {
	ts := []Trajectory{
		{{0, 0}, {2, 4}},
		{{4, 8}, {2, 4}},
	}
	st := ComputeStats(ts)
	if !almostEqual(st.MeanX, 2, 1e-12) || !almostEqual(st.MeanY, 4, 1e-12) {
		t.Errorf("means = %v %v", st.MeanX, st.MeanY)
	}
	n := st.Normalize(Point{2, 4})
	if !almostEqual(n.X, 0, 1e-12) || !almostEqual(n.Y, 0, 1e-12) {
		t.Errorf("Normalize(mean) = %v", n)
	}
}

func TestNormalizeRoundTrip(t *testing.T) {
	st := Stats{MeanX: 3, MeanY: -7, StdX: 2.5, StdY: 0.5}
	f := func(x, y float64) bool {
		p := Point{clip(x), clip(y)}
		n := st.Normalize(p)
		q := Point{X: n.X*st.StdX + st.MeanX, Y: n.Y*st.StdY + st.MeanY}
		return almostEqual(p.X, q.X, 1e-6) && almostEqual(p.Y, q.Y, 1e-6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStatsDegenerate(t *testing.T) {
	// All identical points: std clamped to 1, no NaNs.
	ts := []Trajectory{{{5, 5}, {5, 5}}}
	st := ComputeStats(ts)
	if st.StdX != 1 || st.StdY != 1 {
		t.Errorf("degenerate std = %v %v", st.StdX, st.StdY)
	}
	n := st.Normalize(Point{5, 5})
	if !n.IsFinite() {
		t.Errorf("normalize produced non-finite %v", n)
	}
	if got := ComputeStats(nil); got.StdX != 1 || got.StdY != 1 {
		t.Errorf("empty stats = %+v", got)
	}
}
