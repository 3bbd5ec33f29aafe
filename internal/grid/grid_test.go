package grid

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"traj2hash/internal/geo"
)

func mkGrid(t *testing.T, nx, ny int, cell float64) *Grid {
	t.Helper()
	g, err := New(geo.Point{}, geo.Point{X: float64(nx-1) * cell, Y: float64(ny-1) * cell}, cell)
	if err != nil {
		t.Fatal(err)
	}
	if g.NX != nx || g.NY != ny {
		t.Fatalf("grid %dx%d, want %dx%d", g.NX, g.NY, nx, ny)
	}
	return g
}

func TestNewGridErrors(t *testing.T) {
	if _, err := New(geo.Point{}, geo.Point{X: 1, Y: 1}, 0); err == nil {
		t.Error("zero cell size accepted")
	}
	if _, err := New(geo.Point{X: 2}, geo.Point{X: 1, Y: 1}, 1); err == nil {
		t.Error("inverted region accepted")
	}
}

func TestCoordAndID(t *testing.T) {
	g := mkGrid(t, 10, 5, 50)
	x, y := g.Coord(geo.Point{X: 120, Y: 70})
	if x != 2 || y != 1 {
		t.Errorf("Coord = (%d,%d)", x, y)
	}
	id := g.ID(geo.Point{X: 120, Y: 70})
	if id != 1*10+2 {
		t.Errorf("ID = %d", id)
	}
	cx, cy := g.CoordOf(id)
	if cx != 2 || cy != 1 {
		t.Errorf("CoordOf = (%d,%d)", cx, cy)
	}
}

func TestCoordClamping(t *testing.T) {
	g := mkGrid(t, 10, 5, 50)
	// Out-of-region points clamp to the border cells.
	if x, y := g.Coord(geo.Point{X: -100, Y: -100}); x != 0 || y != 0 {
		t.Errorf("clamp low = (%d,%d)", x, y)
	}
	if x, y := g.Coord(geo.Point{X: 1e9, Y: 1e9}); x != 9 || y != 4 {
		t.Errorf("clamp high = (%d,%d)", x, y)
	}
}

func TestIDRoundTrip(t *testing.T) {
	g := mkGrid(t, 17, 9, 25)
	f := func(xi, yi uint8) bool {
		x := int(xi) % g.NX
		y := int(yi) % g.NY
		rx, ry := g.CoordOf(y*g.NX + x)
		return rx == x && ry == y
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFromTrajectoriesCovers(t *testing.T) {
	ts := []geo.Trajectory{
		{{X: 0, Y: 0}, {X: 100, Y: 30}},
		{{X: -50, Y: 200}},
	}
	g, err := FromTrajectories(ts, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range ts {
		for _, p := range tr {
			// Every point lands in bounds without clamping being necessary:
			// recompute without clamp.
			x := int((p.X - g.MinX) / g.CellSize)
			y := int((p.Y - g.MinY) / g.CellSize)
			if x < 0 || x >= g.NX || y < 0 || y >= g.NY {
				t.Errorf("point %v outside grid", p)
			}
		}
	}
	if _, err := FromTrajectories(nil, 10); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := FromTrajectories([]geo.Trajectory{{}}, 10); err == nil {
		t.Error("all-empty input accepted")
	}
}

func TestGridTrajectory(t *testing.T) {
	g := mkGrid(t, 10, 10, 50)
	tr := geo.Trajectory{{X: 10, Y: 10}, {X: 20, Y: 20}, {X: 60, Y: 10}}
	gt := g.GridTrajectory(tr)
	if len(gt) != 3 {
		t.Fatalf("len = %d", len(gt))
	}
	if gt[0] != gt[1] {
		t.Error("same-cell points got different ids")
	}
	if gt[1] == gt[2] {
		t.Error("different-cell points got same id")
	}
	ct := g.CompressedGridTrajectory(tr)
	if len(ct) != 2 {
		t.Errorf("compressed len = %d, want 2", len(ct))
	}
}

func TestKeyOf(t *testing.T) {
	if KeyOf([]int{1, 22, 333}) != "1,22,333" {
		t.Errorf("KeyOf = %q", KeyOf([]int{1, 22, 333}))
	}
	if KeyOf(nil) != "" {
		t.Errorf("KeyOf(nil) = %q", KeyOf(nil))
	}
	if KeyOf([]int{0}) != "0" {
		t.Errorf("KeyOf(0) = %q", KeyOf([]int{0}))
	}
	// Distinct sequences yield distinct keys.
	if KeyOf([]int{12, 3}) == KeyOf([]int{1, 23}) {
		t.Error("key collision")
	}
}

func TestDecomposedParamCount(t *testing.T) {
	g := mkGrid(t, 1100, 1100, 50)
	d := NewDecomposed(g, 64, rand.New(rand.NewSource(1)))
	// The Section IV-C claim: 2×1100 coordinate embeddings, not 1.21M.
	if n := len(d.Ex.Data) + len(d.Ey.Data); n != 64*2200 {
		t.Errorf("decomposed tables hold %d scalars", n)
	}
	n2v := NewNode2Vec(mkGrid(t, 20, 20, 50), 64, rand.New(rand.NewSource(1)))
	if n := len(n2v.Table.Data); n != 64*400 {
		t.Errorf("node2vec table holds %d scalars", n)
	}
}

// decomposedSim is the cosine similarity of the embeddings of cells
// (x1, y1) and (x2, y2).
func decomposedSim(d *Decomposed, x1, y1, x2, y2 int) float64 {
	a := make([]float64, d.Dim)
	b := make([]float64, d.Dim)
	d.Vector(x1, y1, a)
	d.Vector(x2, y2, b)
	return cosine(a, b)
}

// node2vecSim is the cosine similarity of the embeddings of cells c1, c2.
func node2vecSim(n *Node2Vec, c1, c2 int) float64 {
	return cosine(n.Table.Data[c1*n.Dim:(c1+1)*n.Dim], n.Table.Data[c2*n.Dim:(c2+1)*n.Dim])
}

func cosine(a, b []float64) float64 {
	var dot, na, nb float64
	for i := range a {
		dot += a[i] * b[i]
		na += a[i] * a[i]
		nb += b[i] * b[i]
	}
	return dot / math.Sqrt(na*nb)
}

func TestDecomposedSharedCoordinateSimilarity(t *testing.T) {
	// Even without training, neighbors sharing a coordinate embedding are
	// more similar than random far cells (the (3,5) vs (3,6) example of
	// Section IV-C).
	g := mkGrid(t, 30, 30, 50)
	d := NewDecomposed(g, 32, rand.New(rand.NewSource(2)))
	shared := decomposedSim(d, 3, 5, 3, 6) // share x=3
	far := decomposedSim(d, 3, 5, 20, 25)  // share nothing
	if shared <= far {
		t.Errorf("shared-coordinate similarity %v <= far similarity %v", shared, far)
	}
}

func TestDecomposedPretrainImprovesNeighborhood(t *testing.T) {
	g := mkGrid(t, 20, 20, 50)
	rng := rand.New(rand.NewSource(3))
	d := NewDecomposed(g, 16, rng)
	cfg := DefaultPretrainConfig(16)
	cfg.Epochs = 8
	d.Pretrain(cfg)
	// After pre-training, near cells should be more similar than far cells,
	// averaged over several probes.
	var near, far float64
	probes := [][2]int{{5, 5}, {10, 3}, {14, 14}, {2, 12}}
	for _, p := range probes {
		near += decomposedSim(d, p[0], p[1], p[0]+1, p[1]+1)
		far += decomposedSim(d, p[0], p[1], (p[0]+10)%20, (p[1]+10)%20)
	}
	if near <= far {
		t.Errorf("near similarity %v <= far similarity %v after pretraining", near, far)
	}
}

func TestDecomposedPretrainRawStable(t *testing.T) {
	g := mkGrid(t, 10, 10, 50)
	d := NewDecomposed(g, 8, rand.New(rand.NewSource(4)))
	cfg := DefaultPretrainConfig(8)
	cfg.Objective = Raw
	cfg.Epochs = 3
	loss := d.Pretrain(cfg)
	// Norm clamping keeps the raw objective bounded: |loss| <= |e_i||e_p| + |e_i||e_n| <= 8.
	if loss < -10 || loss > 10 {
		t.Errorf("raw NCE loss diverged: %v", loss)
	}
	for _, v := range d.Ex.Data {
		if v != v { // NaN check
			t.Fatal("NaN in embeddings")
		}
	}
}

func TestDecomposedEmbedCellsShape(t *testing.T) {
	g := mkGrid(t, 10, 10, 50)
	d := NewDecomposed(g, 8, rand.New(rand.NewSource(5)))
	emb := d.EmbedCells([]int{0, 15, 99})
	if emb.Rows != 3 || emb.Cols != 8 {
		t.Errorf("shape = %dx%d", emb.Rows, emb.Cols)
	}
	// Row 0 equals Ex[0] + Ey[0].
	want := make([]float64, 8)
	d.Vector(0, 0, want)
	for j := 0; j < 8; j++ {
		if emb.At(0, j) != want[j] {
			t.Errorf("EmbedCells row mismatch at %d", j)
		}
	}
}

func TestNode2VecWalkStaysOnGrid(t *testing.T) {
	g := mkGrid(t, 6, 6, 50)
	n := NewNode2Vec(g, 8, rand.New(rand.NewSource(6)))
	cfg := DefaultNode2VecConfig(8)
	cfg.WalkLen = 40
	rng := rand.New(rand.NewSource(7))
	w := n.walk(0, cfg, rng)
	if len(w) != 40 {
		t.Fatalf("walk len = %d", len(w))
	}
	for i, c := range w {
		if c < 0 || c >= g.Cells() {
			t.Fatalf("walk step %d off grid: %d", i, c)
		}
		if i > 0 {
			// Consecutive cells must be 8-adjacent.
			x1, y1 := g.CoordOf(w[i-1])
			x2, y2 := g.CoordOf(c)
			if absInt(x1-x2) > 1 || absInt(y1-y2) > 1 {
				t.Fatalf("walk jumped from (%d,%d) to (%d,%d)", x1, y1, x2, y2)
			}
		}
	}
}

func TestNode2VecBiasedWalk(t *testing.T) {
	g := mkGrid(t, 6, 6, 50)
	n := NewNode2Vec(g, 8, rand.New(rand.NewSource(8)))
	cfg := DefaultNode2VecConfig(8)
	cfg.P, cfg.Q = 4, 0.25 // exercise the biased branch
	cfg.WalkLen = 30
	w := n.walk(14, cfg, rand.New(rand.NewSource(9)))
	if len(w) != 30 {
		t.Fatalf("biased walk len = %d", len(w))
	}
}

func TestNode2VecTrainCapturesNeighborhood(t *testing.T) {
	g := mkGrid(t, 8, 8, 50)
	n := NewNode2Vec(g, 16, rand.New(rand.NewSource(10)))
	cfg := DefaultNode2VecConfig(16)
	cfg.NumWalks = 4
	cfg.WalkLen = 20
	cfg.Window = 4
	pairs := n.Train(cfg)
	if pairs == 0 {
		t.Fatal("no training pairs")
	}
	var near, far float64
	for _, c := range []int{9, 18, 36} {
		x, y := g.CoordOf(c)
		near += node2vecSim(n, c, (y+1)*g.NX+x)
		far += node2vecSim(n, c, ((y+4)%8)*g.NX+(x+4)%8)
	}
	if near <= far {
		t.Errorf("node2vec near %v <= far %v", near, far)
	}
}

func TestNode2VecEmbedCells(t *testing.T) {
	g := mkGrid(t, 5, 5, 50)
	n := NewNode2Vec(g, 4, rand.New(rand.NewSource(11)))
	emb := n.EmbedCells([]int{1, 2})
	if emb.Rows != 2 || emb.Cols != 4 {
		t.Errorf("shape = %dx%d", emb.Rows, emb.Cols)
	}
}

func TestDecomposedFasterThanNode2Vec(t *testing.T) {
	// The Figure 7 efficiency claim, scaled down: pre-training the
	// decomposed representation touches O(cells) samples per epoch while
	// node2vec consumes O(cells·walks·len·window) pairs.
	g := mkGrid(t, 12, 12, 50)
	dec := NewDecomposed(g, 8, rand.New(rand.NewSource(12)))
	dcfg := DefaultPretrainConfig(8)
	dcfg.Epochs = 1
	dec.Pretrain(dcfg)
	decSamples := g.Cells() * dcfg.Positives * dcfg.Negatives

	n2v := NewNode2Vec(g, 8, rand.New(rand.NewSource(13)))
	ncfg := DefaultNode2VecConfig(8)
	ncfg.NumWalks = 2
	ncfg.WalkLen = 10
	ncfg.Window = 3
	pairs := n2v.Train(ncfg)
	if pairs <= decSamples {
		t.Errorf("node2vec pairs %d should exceed decomposed samples %d", pairs, decSamples)
	}
}
