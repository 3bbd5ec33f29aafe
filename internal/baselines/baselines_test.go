package baselines

import (
	"math"
	"testing"

	"traj2hash/internal/data"
	"traj2hash/internal/dist"
	"traj2hash/internal/geo"
	"traj2hash/internal/hamming"
	"traj2hash/internal/nn"
)

func tinyBase() BaseConfig {
	cfg := DefaultBaseConfig(16)
	cfg.MaxLen = 12
	cfg.M = 4
	cfg.Epochs = 3
	cfg.BatchSize = 8
	return cfg
}

func gen(n int, seed int64) []geo.Trajectory {
	return data.Porto().Generate(n, seed)
}

func euclid(a, b []float64) float64 {
	var sum float64
	for i := range a {
		d := a[i] - b[i]
		sum += d * d
	}
	return math.Sqrt(sum)
}

// allEncoders builds one of each neural baseline over the same space.
func allEncoders(t *testing.T, cfg BaseConfig, space []geo.Trajectory) []Encoder {
	t.Helper()
	nt, err := NewNeuTraj(cfg, space)
	if err != nil {
		t.Fatal(err)
	}
	ntns, err := NewNTNoSAM(cfg, space)
	if err != nil {
		t.Fatal(err)
	}
	t2v, err := NewT2Vec(cfg, space, 400)
	if err != nil {
		t.Fatal(err)
	}
	return []Encoder{
		nt,
		ntns,
		t2v,
		NewCLTSim(cfg, space),
		NewTransformer(cfg, space),
		NewTrajGAT(cfg, space),
	}
}

func TestEncoderNamesAndDims(t *testing.T) {
	space := gen(12, 1)
	cfg := tinyBase()
	encs := allEncoders(t, cfg, space)
	wantNames := map[string]bool{
		"NeuTraj": true, "NT-No-SAM": true, "t2vec": true,
		"CL-TSim": true, "Transformer": true, "TrajGAT": true,
	}
	for _, e := range encs {
		if !wantNames[e.Name()] {
			t.Errorf("unexpected name %q", e.Name())
		}
		delete(wantNames, e.Name())
		if e.OutDim() != cfg.Dim {
			t.Errorf("%s: OutDim = %d", e.Name(), e.OutDim())
		}
		emb := Embed(e, space[0])
		if len(emb) != cfg.Dim {
			t.Errorf("%s: embedding dim = %d", e.Name(), len(emb))
		}
		for _, v := range emb {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: non-finite embedding", e.Name())
				break
			}
		}
		if len(e.Params()) == 0 {
			t.Errorf("%s: no parameters", e.Name())
		}
	}
	if len(wantNames) != 0 {
		t.Errorf("missing encoders: %v", wantNames)
	}
}

func TestEmbedAllShape(t *testing.T) {
	space := gen(6, 2)
	e := NewTransformer(tinyBase(), space)
	out := EmbedAll(e, space[:4])
	if len(out) != 4 || len(out[0]) != e.OutDim() {
		t.Errorf("EmbedAll shape = %dx%d", len(out), len(out[0]))
	}
}

func TestTrainWMSEImproves(t *testing.T) {
	seeds := gen(20, 3)
	val := gen(12, 4)
	space := append(append([]geo.Trajectory{}, seeds...), val...)
	cfg := tinyBase()
	e, err := NewNTNoSAM(cfg, space)
	if err != nil {
		t.Fatal(err)
	}
	res, err := TrainWMSE(e, cfg, seeds, val, dist.FrechetDist)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.EpochLoss) != cfg.Epochs || len(res.ValHR10) != cfg.Epochs {
		t.Fatalf("history lengths = %d/%d", len(res.EpochLoss), len(res.ValHR10))
	}
	if res.Theta <= 0 {
		t.Errorf("theta = %v", res.Theta)
	}
	if res.EpochLoss[len(res.EpochLoss)-1] > res.EpochLoss[0]*1.5 {
		t.Errorf("loss grew: %v -> %v", res.EpochLoss[0], res.EpochLoss[len(res.EpochLoss)-1])
	}
	if res.BestHR10 < 0 {
		t.Errorf("best HR = %v", res.BestHR10)
	}
}

func TestTrainWMSETooFewSeeds(t *testing.T) {
	space := gen(4, 5)
	cfg := tinyBase()
	e := NewTransformer(cfg, space)
	if _, err := TrainWMSE(e, cfg, space[:2], nil, dist.DTWDist); err == nil {
		t.Error("tiny seed set accepted")
	}
}

func TestNeuTrajSAMMemoryChanges(t *testing.T) {
	space := gen(10, 6)
	cfg := tinyBase()
	nt, err := NewNeuTraj(cfg, space)
	if err != nil {
		t.Fatal(err)
	}
	// Inference must be order-independent: SAM memory is written only in
	// training mode.
	first := Embed(nt, space[0])
	Embed(nt, space[1]) // other encodings must not perturb the memory
	again := Embed(nt, space[0])
	if euclid(first, again) > 1e-12 {
		t.Error("inference encoding depends on prior queries")
	}
	// Training mode does write memory.
	nt.SetTraining(true)
	Embed(nt, space[0])
	nt.SetTraining(false)
	var nonZero bool
	for _, v := range nt.memory {
		if v != 0 {
			nonZero = true
			break
		}
	}
	if !nonZero {
		t.Error("training mode did not write SAM memory")
	}
	nt.ResetMemory()
	for _, v := range nt.memory {
		if v != 0 {
			t.Fatal("ResetMemory left residue")
		}
	}
}

func TestT2VecTrainReducesLoss(t *testing.T) {
	corpus := gen(30, 7)
	cfg := tinyBase()
	t2v, err := NewT2Vec(cfg, corpus, 400)
	if err != nil {
		t.Fatal(err)
	}
	losses := t2v.Train(corpus, 4)
	if len(losses) != 4 {
		t.Fatalf("losses = %v", losses)
	}
	if losses[3] > losses[0] {
		t.Errorf("autoencoder loss grew: %v", losses)
	}
}

func TestCLTSimTrainStableAndInformative(t *testing.T) {
	corpus := gen(24, 8)
	cfg := tinyBase()
	cl := NewCLTSim(cfg, corpus)
	losses := cl.Train(corpus, 3)
	if len(losses) == 0 {
		t.Fatal("no loss recorded")
	}
	for _, l := range losses {
		if math.IsNaN(l) || math.IsInf(l, 0) {
			t.Fatalf("unstable loss %v", l)
		}
	}
	// After contrastive training, an augmented view should be nearer its
	// source than a random other trajectory, most of the time.
	var correct int
	const trials = 8
	for i := 0; i < trials; i++ {
		src := corpus[i]
		view := cl.augment(src)
		other := corpus[(i+11)%len(corpus)]
		a := euclid(Embed(cl, src), Embed(cl, view))
		b := euclid(Embed(cl, src), Embed(cl, other))
		if a < b {
			correct++
		}
	}
	if correct < trials/2 {
		t.Errorf("contrastive embedding ordered only %d/%d", correct, trials)
	}
}

func TestCLTSimAugmentKeepsEndpoints(t *testing.T) {
	corpus := gen(5, 9)
	cl := NewCLTSim(tinyBase(), corpus)
	for trial := 0; trial < 10; trial++ {
		v := cl.augment(corpus[0])
		if len(v) < 2 {
			t.Fatal("augmented view too short")
		}
	}
}

func TestQuadTreeInvariants(t *testing.T) {
	space := gen(30, 10)
	qt := NewQuadTree(space, 16, 6)
	if qt.NumNodes() <= 1 {
		t.Fatal("tree did not split")
	}
	if qt.Depth() > 6 {
		t.Errorf("depth %d exceeds max", qt.Depth())
	}
	for _, tr := range space[:5] {
		for _, p := range tr {
			path := qt.Path(p)
			if len(path) == 0 || path[0] != 0 {
				t.Fatalf("path = %v", path)
			}
			if leaf := qt.Leaf(p); leaf != path[len(path)-1] {
				t.Fatalf("Leaf %d != path end %d", leaf, path[len(path)-1])
			}
			for _, id := range path {
				if id < 0 || id >= qt.NumNodes() {
					t.Fatalf("node id %d out of range", id)
				}
			}
		}
	}
	// Nearby points share most of their path; far points split earlier.
	p1 := space[0][0]
	p2 := geo.Point{X: p1.X + 1, Y: p1.Y + 1}
	far := geo.Point{X: p1.X + 5000, Y: p1.Y + 4000}
	shared := sharedPrefix(qt.Path(p1), qt.Path(p2))
	sharedFar := sharedPrefix(qt.Path(p1), qt.Path(far))
	if shared < sharedFar {
		t.Errorf("near points share %d < far points %d", shared, sharedFar)
	}
}

func sharedPrefix(a, b []int) int {
	n := 0
	for n < len(a) && n < len(b) && a[n] == b[n] {
		n++
	}
	return n
}

func TestFreshProperties(t *testing.T) {
	f := NewFresh(1000, 4, 16, 1)
	if f.Bits() != 64 {
		t.Fatalf("bits = %d", f.Bits())
	}
	ts := gen(10, 11)
	// Determinism.
	c1 := f.Code(ts[0])
	c2 := f.Code(ts[0])
	if !hamming.Equal(c1, c2) {
		t.Error("Fresh not deterministic")
	}
	// Locality: a slightly perturbed trajectory collides more than a far one.
	var nearDist, farDist int
	for i := 0; i < 10; i++ {
		base := ts[i%len(ts)]
		near := base.Clone()
		for j := range near {
			near[j] = near[j].Add(geo.Point{X: 3, Y: -2})
		}
		farTraj := base.Clone()
		for j := range farTraj {
			farTraj[j] = farTraj[j].Add(geo.Point{X: 4000, Y: 3500})
		}
		nearDist += hamming.Distance(f.Code(base), f.Code(near))
		farDist += hamming.Distance(f.Code(base), f.Code(farTraj))
	}
	if nearDist >= farDist {
		t.Errorf("Fresh locality violated: near %d >= far %d", nearDist, farDist)
	}
	codes := f.CodeAll(ts)
	if len(codes) != len(ts) {
		t.Error("CodeAll length")
	}
}

func TestFreshIndex(t *testing.T) {
	f := NewFresh(1000, 4, 16, 1)
	db := gen(60, 15)
	ix := NewFreshIndex(f, db)
	if ix.Len() != 60 {
		t.Fatalf("Len = %d", ix.Len())
	}
	// A database trajectory collides with itself in every table, so it must
	// rank first among its own candidates.
	for _, qi := range []int{0, 17, 42} {
		cands := ix.Candidates(db[qi])
		if len(cands) == 0 || cands[0] != qi {
			t.Errorf("query %d: candidates %v (want self first)", qi, cands[:min(len(cands), 5)])
		}
	}
	// A noisy copy collides in more tables than a distant trajectory (the
	// LSH property, in expectation over several probes).
	var copyHits, farHits int
	for _, qi := range []int{1, 5, 9, 13} {
		noisy := db[qi].Clone()
		for j := range noisy {
			noisy[j] = noisy[j].Add(geo.Point{X: 2, Y: -3})
		}
		for _, id := range ix.Candidates(noisy) {
			if id == qi {
				copyHits++
			}
		}
		far := db[qi].Clone()
		for j := range far {
			far[j] = far[j].Add(geo.Point{X: 5000, Y: 4200})
		}
		for _, id := range ix.Candidates(far) {
			if id == qi {
				farHits++
			}
		}
	}
	if copyHits <= farHits {
		t.Errorf("LSH locality violated: noisy copies hit %d, far copies hit %d", copyHits, farHits)
	}
}

func TestHashAdapterTrainAndCode(t *testing.T) {
	seeds := gen(20, 12)
	cfg := tinyBase()
	e := NewTransformer(cfg, seeds)
	ad := NewHashAdapter(e, 16, 2, 1)
	acfg := DefaultAdapterConfig()
	acfg.Epochs = 10
	acfg.M = 4
	if err := ad.Train(acfg, seeds, dist.FrechetDist); err != nil {
		t.Fatal(err)
	}
	c := ad.Code(seeds[0])
	if c.Bits != 16 {
		t.Fatalf("code bits = %d", c.Bits)
	}
	cs := ad.CodeAll(seeds[:3])
	if len(cs) != 3 {
		t.Error("CodeAll length")
	}
	// The adapter should order codes by similarity better than random:
	// identical trajectory → identical code.
	if hamming.Distance(ad.Code(seeds[0]), ad.Code(seeds[0])) != 0 {
		t.Error("self-distance nonzero")
	}
}

func TestHashAdapterTooFewSeeds(t *testing.T) {
	seeds := gen(3, 13)
	e := NewTransformer(tinyBase(), seeds)
	ad := NewHashAdapter(e, 16, 2, 1)
	cfg := DefaultAdapterConfig()
	if err := ad.Train(cfg, seeds, dist.DTWDist); err == nil {
		t.Error("tiny seed set accepted")
	}
}

// paramsMoved reports whether any parameter differs bitwise from its
// snapshot — whether a training run changed the weights at all.
func paramsMoved(ps []*nn.Tensor, before [][]float64) bool {
	for i, p := range ps {
		for j, v := range p.Data {
			if math.Float64bits(v) != math.Float64bits(before[i][j]) {
				return true
			}
		}
	}
	return false
}

// TestAllBaselinesTrainable exercises one WMSE epoch for the metric
// baselines over a shared space — an integration smoke test. It trains
// with no validation set, so the run must hand back the trained weights,
// not the initial ones.
func TestAllBaselinesTrainable(t *testing.T) {
	seeds := gen(12, 14)
	cfg := tinyBase()
	cfg.Epochs = 1
	cfg.M = 4
	for _, e := range allEncoders(t, cfg, seeds) {
		if e.Name() == "t2vec" || e.Name() == "CL-TSim" {
			continue // these train unsupervised, covered above
		}
		before := snapshotParams(e.Params())
		if _, err := TrainWMSE(e, cfg, seeds, nil, dist.DTWDist); err != nil {
			t.Errorf("%s: %v", e.Name(), err)
		}
		if !paramsMoved(e.Params(), before) {
			t.Errorf("%s: every weight equals its initial value after training", e.Name())
		}
	}
}

// TestTrainWMSEWithoutValidationKeepsLastEpoch is the regression test of
// the model-selection bug: with no validation set HR@10 is NaN, which
// never beats BestHR10, and the initial weights used to be restored. The
// last epoch is the one to keep, and it is reported as such.
func TestTrainWMSEWithoutValidationKeepsLastEpoch(t *testing.T) {
	seeds := gen(12, 14)
	cfg := tinyBase()
	e := NewTransformer(cfg, seeds)
	before := snapshotParams(e.Params())
	res, err := TrainWMSE(e, cfg, seeds, nil, dist.FrechetDist)
	if err != nil {
		t.Fatal(err)
	}
	if !paramsMoved(e.Params(), before) {
		t.Fatal("every weight equals its initial value after training without a validation set")
	}
	if res.BestEpoch != cfg.Epochs-1 || res.BestHR10 != -1 {
		t.Errorf("BestEpoch %d, BestHR10 %v; want the last epoch (%d) and no HR (-1)", res.BestEpoch, res.BestHR10, cfg.Epochs-1)
	}
	// With a validation set, selection is by HR@10 as before.
	val := gen(12, 15)
	res, err = TrainWMSE(NewTransformer(cfg, seeds), cfg, seeds, val, dist.FrechetDist)
	if err != nil {
		t.Fatal(err)
	}
	if res.BestHR10 < 0 || res.BestHR10 != res.ValHR10[res.BestEpoch] {
		t.Errorf("with validation: BestHR10 %v at epoch %d, ValHR10 %v", res.BestHR10, res.BestEpoch, res.ValHR10)
	}
}
