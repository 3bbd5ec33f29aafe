package data

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"

	"traj2hash/internal/dist"
	"traj2hash/internal/geo"
	"traj2hash/internal/grid"
)

func TestGenerateDeterministic(t *testing.T) {
	c := Porto()
	a := c.Generate(5, 42)
	b := c.Generate(5, 42)
	for i := range a {
		if len(a[i]) != len(b[i]) {
			t.Fatalf("trajectory %d lengths differ", i)
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("trajectory %d point %d differs", i, j)
			}
		}
	}
	// Different seed differs.
	c2 := c.Generate(5, 43)
	same := true
	for i := range a {
		if len(a[i]) != len(c2[i]) {
			same = false
			break
		}
		for j := range a[i] {
			if a[i][j] != c2[i][j] {
				same = false
			}
		}
	}
	if same {
		t.Error("different seeds produced identical data")
	}
}

func TestGeneratePreprocessed(t *testing.T) {
	for _, c := range []*City{Porto(), ChengDu()} {
		ts := c.Generate(50, 1)
		if len(ts) != 50 {
			t.Fatalf("%s: got %d trajectories", c.Name, len(ts))
		}
		for i, tr := range ts {
			if err := tr.Validate(MinPoints); err != nil {
				t.Errorf("%s[%d]: %v", c.Name, i, err)
			}
			if len(tr) > c.MaxPoints {
				t.Errorf("%s[%d]: %d points exceeds max %d", c.Name, i, len(tr), c.MaxPoints)
			}
			for _, p := range tr {
				if p.X < 0 || p.X > c.Width || p.Y < 0 || p.Y > c.Height {
					t.Errorf("%s[%d]: point %v outside extent", c.Name, i, p)
				}
			}
		}
	}
}

func TestTripsAreRoadConstrained(t *testing.T) {
	// Points should stay near the road lattice (within noise + sampling
	// tolerance) for most samples.
	c := Porto()
	ts := c.Generate(20, 2)
	var near, total int
	for _, tr := range ts {
		for _, p := range tr {
			dx := math.Abs(p.X - math.Round(p.X/c.RoadSpacing)*c.RoadSpacing)
			dy := math.Abs(p.Y - math.Round(p.Y/c.RoadSpacing)*c.RoadSpacing)
			// On a rectilinear route, at least one coordinate lies on the
			// lattice (up to GPS noise).
			if math.Min(dx, dy) < 4*c.NoiseStd {
				near++
			}
			total++
		}
	}
	if frac := float64(near) / float64(total); frac < 0.8 {
		t.Errorf("only %.0f%% of points near the road lattice", frac*100)
	}
}

func TestHubConcentrationMakesTriplesClusterable(t *testing.T) {
	// The property the fast triplet generation relies on (Section IV-F):
	// with a 500 m coarse grid, a hub-concentrated corpus yields clusters
	// with at least two members.
	c := Porto()
	ts := c.Generate(300, 3)
	g, err := grid.FromTrajectories(ts, 500)
	if err != nil {
		t.Fatal(err)
	}
	clusters := map[string]int{}
	for _, tr := range ts {
		clusters[grid.KeyOf(g.CompressedGridTrajectory(tr))]++
	}
	var multi int
	for _, n := range clusters {
		if n >= 2 {
			multi++
		}
	}
	if multi == 0 {
		t.Error("no multi-member coarse-grid clusters; triplet generation would starve")
	}
}

func TestCityShapesDiffer(t *testing.T) {
	p, cd := Porto(), ChengDu()
	if p.Width == cd.Width && p.Height == cd.Height {
		t.Error("cities share extent")
	}
	if len(p.Hubs) == len(cd.Hubs) {
		t.Error("cities share hub count")
	}
	// ChengDu hubs should be ring-structured: all non-center hubs at one of
	// two radii from the center.
	center := geo.Point{X: 5000, Y: 5000}
	for _, h := range cd.Hubs[1:] {
		r := h.Dist(center)
		if math.Abs(r-1800) > 1 && math.Abs(r-3600) > 1 {
			t.Errorf("hub %v at radius %v, want 1800 or 3600", h, r)
		}
	}
}

func TestTripDistanceDistributionSane(t *testing.T) {
	// DTW between random trips should be finite, positive, and varied —
	// the property the WMSE supervision needs.
	ts := Porto().Generate(20, 4)
	var min, max float64 = math.Inf(1), 0
	for i := 0; i < 10; i++ {
		d := dist.DTW(ts[2*i], ts[2*i+1])
		if math.IsInf(d, 0) || math.IsNaN(d) || d <= 0 {
			t.Fatalf("degenerate DTW %v", d)
		}
		min = math.Min(min, d)
		max = math.Max(max, d)
	}
	if max/min < 2 {
		t.Errorf("distance distribution too flat: [%v, %v]", min, max)
	}
}

func TestSplitSpec(t *testing.T) {
	s := PaperSplit()
	if s.Total() != 2000+8000+200000+10000+100000 {
		t.Errorf("Total = %d", s.Total())
	}
}

func TestBuildSplitsDisjointAndSized(t *testing.T) {
	spec := SplitSpec{Seed: 10, Validation: 15, Corpus: 30, Queries: 5, Database: 40}
	d := Build(Porto(), spec, 7)
	if len(d.Seeds) != 10 || len(d.Validation) != 15 || len(d.Corpus) != 30 ||
		len(d.Queries) != 5 || len(d.Database) != 40 {
		t.Fatalf("split sizes: %d/%d/%d/%d/%d", len(d.Seeds), len(d.Validation),
			len(d.Corpus), len(d.Queries), len(d.Database))
	}
	if got := len(d.All()); got != spec.Total() {
		t.Errorf("All = %d", got)
	}
}

func TestSplitByFractions(t *testing.T) {
	ts := Porto().Generate(100, 40)
	ds, err := SplitByFractions("mine", ts, 0.1, 0.1, 0.3, 0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Name != "mine" {
		t.Errorf("name = %q", ds.Name)
	}
	if len(ds.Seeds) != 10 || len(ds.Validation) != 10 || len(ds.Corpus) != 30 || len(ds.Queries) != 5 {
		t.Errorf("splits = %d/%d/%d/%d", len(ds.Seeds), len(ds.Validation), len(ds.Corpus), len(ds.Queries))
	}
	total := len(ds.Seeds) + len(ds.Validation) + len(ds.Corpus) + len(ds.Queries) + len(ds.Database)
	if total != 100 {
		t.Errorf("total = %d", total)
	}
	// Deterministic.
	ds2, _ := SplitByFractions("mine", ts, 0.1, 0.1, 0.3, 0.05, 1)
	if ds2.Seeds[0][0] != ds.Seeds[0][0] {
		t.Error("not deterministic")
	}
	// Errors.
	if _, err := SplitByFractions("x", ts, 0, 0.1, 0.3, 0.05, 1); err == nil {
		t.Error("zero fraction accepted")
	}
	if _, err := SplitByFractions("x", ts, 0.5, 0.3, 0.2, 0.1, 1); err == nil {
		t.Error("fractions summing to >1 accepted")
	}
	if _, err := SplitByFractions("x", ts[:4], 0.25, 0.25, 0.25, 0.2, 1); err == nil {
		t.Error("no database remainder accepted")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	spec := SplitSpec{Seed: 5, Validation: 5, Corpus: 5, Queries: 5, Database: 5}
	d := Build(ChengDu(), spec, 8)
	path := filepath.Join(t.TempDir(), "ds.gob")
	if err := d.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != d.Name || len(got.Database) != len(d.Database) {
		t.Fatal("round trip mismatch")
	}
	for i := range d.Database {
		for j := range d.Database[i] {
			if got.Database[i][j] != d.Database[i][j] {
				t.Fatal("trajectory data mismatch")
			}
		}
	}
	if _, err := Load(filepath.Join(t.TempDir(), "missing.gob")); err == nil {
		t.Error("missing file accepted")
	}
}

// TestSaveDeterministic: two datasets built independently from the same
// city and seed must Save to identical bytes — a saved dataset is the
// input of every reproducible experiment run.
func TestSaveDeterministic(t *testing.T) {
	spec := SplitSpec{Seed: 5, Validation: 5, Corpus: 5, Queries: 5, Database: 20}
	var saved [2][]byte
	for i := range saved {
		path := filepath.Join(t.TempDir(), "ds.gob")
		if err := Build(Porto(), spec, 8).Save(path); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		saved[i] = b
	}
	if !bytes.Equal(saved[0], saved[1]) {
		t.Fatalf("two independently-built datasets saved to different bytes (%d vs %d)", len(saved[0]), len(saved[1]))
	}
}

func TestFilter(t *testing.T) {
	ts := []geo.Trajectory{
		make(geo.Trajectory, 5),
		make(geo.Trajectory, 10),
		make(geo.Trajectory, 20),
	}
	got := Filter(ts, 10)
	if len(got) != 2 {
		t.Errorf("Filter kept %d", len(got))
	}
}
