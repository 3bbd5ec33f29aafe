package core

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"traj2hash/internal/data"
	"traj2hash/internal/dist"
	"traj2hash/internal/geo"
	"traj2hash/internal/nn"
)

// tinyConfig is a CPU-friendly configuration for tests.
func tinyConfig() Config {
	cfg := DefaultConfig(16)
	cfg.Heads = 2
	cfg.Blocks = 1
	cfg.MaxLen = 12
	cfg.M = 4
	cfg.Epochs = 4
	cfg.BatchSize = 8
	cfg.TripletBatch = 8
	cfg.NumTriplets = 60
	cfg.GridPreEpochs = 1
	cfg.GridCellSize = 200
	return cfg
}

func genTrajs(n int, seed int64) []geo.Trajectory {
	return data.Porto().Generate(n, seed)
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig(32)
	if err := good.Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero dim", func(c *Config) { c.Dim = 0 }},
		{"odd hash bits", func(c *Config) { c.HashBits = 15 }},
		{"zero hash bits", func(c *Config) { c.HashBits = 0 }},
		{"heads not dividing dim", func(c *Config) { c.Heads = 5 }}, // 32 % 5 != 0
		{"zero heads", func(c *Config) { c.Heads = 0 }},             // must not divide by zero
		{"negative heads", func(c *Config) { c.Heads = -4 }},        // divides 32, but is no head count
		{"negative blocks", func(c *Config) { c.Blocks = -1 }},
		{"odd M", func(c *Config) { c.M = 3 }},
		{"zero M", func(c *Config) { c.M = 0 }},
		{"max len one", func(c *Config) { c.MaxLen = 1 }},
		{"zero grid cell", func(c *Config) { c.GridCellSize = 0 }},
		{"negative triplet cell", func(c *Config) { c.TripletCellSize = -1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := DefaultConfig(32)
			tc.mutate(&c)
			if err := c.Validate(); err == nil {
				t.Error("invalid config accepted")
			}
		})
	}
}

func TestNewModelErrors(t *testing.T) {
	if _, err := New(tinyConfig(), nil); err == nil {
		t.Error("empty space accepted")
	}
	bad := tinyConfig()
	bad.Dim = 0
	if _, err := New(bad, genTrajs(3, 1)); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestEmbedShapeAndDeterminism(t *testing.T) {
	ts := genTrajs(10, 2)
	m, err := New(tinyConfig(), ts)
	if err != nil {
		t.Fatal(err)
	}
	e1 := m.Embed(ts[0])
	e2 := m.Embed(ts[0])
	if len(e1) != m.Cfg.HashBits {
		t.Fatalf("embedding dim = %d, want %d", len(e1), m.Cfg.HashBits)
	}
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatal("Embed not deterministic")
		}
	}
	all := m.EmbedAll(ts[:3])
	if len(all) != 3 || len(all[0]) != m.Cfg.HashBits {
		t.Error("EmbedAll shape wrong")
	}
}

func TestCodeMatchesEmbedSigns(t *testing.T) {
	ts := genTrajs(5, 3)
	m, err := New(tinyConfig(), ts)
	if err != nil {
		t.Fatal(err)
	}
	e := m.Embed(ts[0])
	c := m.Code(ts[0])
	if c.Bits != m.Cfg.HashBits {
		t.Fatalf("code bits = %d", c.Bits)
	}
	for i, v := range e {
		if (v > 0) != c.Bit(i) {
			t.Fatalf("bit %d disagrees with sign of %v", i, v)
		}
	}
	cs := m.CodeAll(ts[:2])
	if len(cs) != 2 {
		t.Error("CodeAll wrong length")
	}
}

// TestLemma3ReverseSymmetryOfEmbeddings is the paper's central property:
// with the reverse augmentation, E(h_f(T1), h_f(T2)) must equal
// E(h_f(T1^r), h_f(T2^r)).
func TestLemma3ReverseSymmetryOfEmbeddings(t *testing.T) {
	ts := genTrajs(8, 4)
	cfg := tinyConfig()
	cfg.UseRevAug = true
	m, err := New(cfg, ts)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 4; trial++ {
		a, b := ts[2*trial], ts[2*trial+1]
		fwd := euclid(m.Embed(a), m.Embed(b))
		rev := euclid(m.Embed(a.Reverse()), m.Embed(b.Reverse()))
		// Resampling is arc-length symmetric, so the only error is float
		// round-off plus interpolation at segment boundaries.
		if math.Abs(fwd-rev) > 1e-6*(1+fwd) {
			t.Errorf("trial %d: forward %v != reversed %v", trial, fwd, rev)
		}
	}
}

// TestNoRevAugBreaksSymmetry documents the flip side: without the
// augmentation the property does not hold in general (the motivation of
// Lemma 3).
func TestNoRevAugBreaksSymmetry(t *testing.T) {
	ts := genTrajs(8, 5)
	cfg := tinyConfig()
	cfg.UseRevAug = false
	m, err := New(cfg, ts)
	if err != nil {
		t.Fatal(err)
	}
	var maxGap float64
	for trial := 0; trial < 4; trial++ {
		a, b := ts[2*trial], ts[2*trial+1]
		fwd := euclid(m.Embed(a), m.Embed(b))
		rev := euclid(m.Embed(a.Reverse()), m.Embed(b.Reverse()))
		gap := math.Abs(fwd - rev)
		if gap > maxGap {
			maxGap = gap
		}
	}
	if maxGap < 1e-9 {
		t.Error("without reverse augmentation the distances are suspiciously symmetric")
	}
}

// TestFootnote1SumCombinationPathology documents why the paper combines
// forward and reverse embeddings by concatenation rather than element-wise
// sum (footnote 1): with h_f = h + h_r, the representation of T and of T^r
// coincide, so E(h_f^{T1}, h_f^{T2}) = E(h_f^{T1}, h_f^{T2^r}) — an
// "unexpected property" no DTW/Fréchet/Hausdorff-like distance satisfies.
func TestFootnote1SumCombinationPathology(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	dim := 8
	vec := func() []float64 {
		v := make([]float64, dim)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		return v
	}
	sum := func(a, b []float64) []float64 {
		out := make([]float64, dim)
		for i := range out {
			out[i] = a[i] + b[i]
		}
		return out
	}
	h1, h1r := vec(), vec() // h(T1), h(T1^r)
	h2, h2r := vec(), vec() // h(T2), h(T2^r)
	f1 := sum(h1, h1r)
	f2 := sum(h2, h2r)
	f2rev := sum(h2r, h2) // representation of T2^r under sum combination
	if d := euclid(f1, f2) - euclid(f1, f2rev); math.Abs(d) > 1e-12 {
		t.Fatalf("sum combination should collapse T2 and T2^r, gap %v", d)
	}
	// Concatenation does not collapse them...
	cat := func(a, b []float64) []float64 { return append(append([]float64{}, a...), b...) }
	c2 := cat(h2, h2r)
	c2rev := cat(h2r, h2)
	c1 := cat(h1, h1r)
	if euclid(c1, c2) == euclid(c1, c2rev) {
		t.Fatal("concatenation unexpectedly collapsed T2 and T2^r")
	}
	// ...while still satisfying Lemma 3's reverse symmetry.
	c1rev := cat(h1r, h1)
	if math.Abs(euclid(c1, c2)-euclid(c1rev, c2rev)) > 1e-12 {
		t.Fatal("concatenation broke reverse symmetry")
	}
}

func euclid(a, b []float64) float64 {
	var sum float64
	for i := range a {
		d := a[i] - b[i]
		sum += d * d
	}
	return math.Sqrt(sum)
}

func TestAblationVariantsBuildAndEmbed(t *testing.T) {
	ts := genTrajs(6, 6)
	for _, mutate := range []func(*Config){
		func(c *Config) { c.UseGrids = false },
		func(c *Config) { c.UseGrids, c.UseRevAug = false, false },
		func(c *Config) { c.UseGrids, c.UseRevAug, c.UseTriplets = false, false, false },
		func(c *Config) { c.Readout = Mean },
		func(c *Config) { c.Readout = CLS },
	} {
		cfg := tinyConfig()
		mutate(&cfg)
		m, err := New(cfg, ts)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(m.Embed(ts[0])); got != cfg.HashBits {
			t.Errorf("variant embedding dim = %d", got)
		}
	}
}

func TestReadoutString(t *testing.T) {
	if LowerBound.String() != "LowerBound" || Mean.String() != "Mean" || CLS.String() != "CLS" {
		t.Error("readout names wrong")
	}
	if Readout(9).String() == "" {
		t.Error("unknown readout should format")
	}
}

func TestGridRepString(t *testing.T) {
	if DecomposedNCE.String() != "Decomposed" || Node2VecRep.String() != "Node2vec" {
		t.Error("grid rep names wrong")
	}
	if GridRep(9).String() == "" {
		t.Error("unknown grid rep should format")
	}
}

func TestEmbedAllParallelMatchesSequential(t *testing.T) {
	ts := genTrajs(10, 23)
	m, err := New(tinyConfig(), ts)
	if err != nil {
		t.Fatal(err)
	}
	seq := m.EmbedAll(ts)
	for _, workers := range []int{0, 1, 4} {
		par := m.EmbedAllParallel(ts, workers)
		for i := range seq {
			for j := range seq[i] {
				if seq[i][j] != par[i][j] {
					t.Fatalf("workers=%d: differs at %d/%d", workers, i, j)
				}
			}
		}
	}
}

func TestRankingHinge(t *testing.T) {
	ua := nn.FromVec([]float64{1, 1, 1, 1})
	up := nn.FromVec([]float64{1, 1, 1, 1})   // dot = 4
	un := nn.FromVec([]float64{-1, -1, 1, 1}) // dot = 0
	// [−4 + 0 + α]_+ : zero for α=2, positive for α=6.
	if got := RankingHinge(ua, up, un, 2).Scalar(); got != 0 {
		t.Errorf("hinge(α=2) = %v", got)
	}
	if got := RankingHinge(ua, up, un, 6).Scalar(); got != 2 {
		t.Errorf("hinge(α=6) = %v", got)
	}
}

func TestGenerateTriplets(t *testing.T) {
	corpus := genTrajs(120, 7)
	trips := GenerateTriplets(corpus, 500, 50, 1)
	if len(trips) == 0 {
		t.Fatal("no triplets generated")
	}
	for i, tr := range trips {
		if tr.Anchor == tr.Positive {
			t.Errorf("triplet %d: anchor == positive", i)
		}
		for _, id := range []int{tr.Anchor, tr.Positive, tr.Negative} {
			if id < 0 || id >= len(corpus) {
				t.Errorf("triplet %d: index %d out of range", i, id)
			}
		}
	}
	// Determinism.
	again := GenerateTriplets(corpus, 500, 50, 1)
	if len(again) != len(trips) {
		t.Fatal("not deterministic")
	}
	for i := range trips {
		if trips[i] != again[i] {
			t.Fatal("not deterministic")
		}
	}
	// Degenerate corpora.
	if got := GenerateTriplets(corpus[:2], 500, 10, 1); got != nil {
		t.Error("tiny corpus should yield nil")
	}
	if got := GenerateTriplets(corpus, 500, 0, 1); got != nil {
		t.Error("n=0 should yield nil")
	}
}

// TestTripletsFrechetBound validates the Section IV-F claim: within a
// cluster, the Fréchet distance between members is bounded by (a small
// multiple of) the grid size, and anchors are closer to positives than to
// negatives most of the time.
func TestTripletsFrechetBound(t *testing.T) {
	corpus := genTrajs(150, 8)
	cell := 500.0
	trips := GenerateTriplets(corpus, cell, 40, 2)
	if len(trips) == 0 {
		t.Skip("no triplets on this corpus")
	}
	var correct, total int
	for _, tr := range trips {
		dp := dist.Frechet(corpus[tr.Anchor], corpus[tr.Positive])
		dn := dist.Frechet(corpus[tr.Anchor], corpus[tr.Negative])
		// Shared compressed cell sequence keeps pairs within cell-diagonal
		// distance: points of matched cells differ by at most one cell
		// diagonal (cells are traversed in the same order).
		if dp > cell*2*math.Sqrt2 {
			t.Errorf("positive Frechet %v exceeds cluster bound", dp)
		}
		if dp < dn {
			correct++
		}
		total++
	}
	if frac := float64(correct) / float64(total); frac < 0.8 {
		t.Errorf("only %.0f%% of triplets correctly ordered", frac*100)
	}
}

func TestSnapshotRestore(t *testing.T) {
	ts := genTrajs(5, 10)
	m, err := New(tinyConfig(), ts)
	if err != nil {
		t.Fatal(err)
	}
	snap := snapshotParams(m.Params())
	before := m.Embed(ts[0])
	// Perturb all parameters.
	for _, p := range m.Params() {
		for i := range p.Data {
			p.Data[i] += 0.5
		}
	}
	if e := m.Embed(ts[0]); euclid(e, before) == 0 {
		t.Fatal("perturbation had no effect")
	}
	restoreParams(m.Params(), snap)
	after := m.Embed(ts[0])
	if euclid(after, before) != 0 {
		t.Error("restore did not recover embeddings")
	}
}

func TestTrainImprovesRetrieval(t *testing.T) {
	seeds := genTrajs(24, 11)
	val := genTrajs(16, 12)
	corpus := genTrajs(60, 13)
	space := append(append(append([]geo.Trajectory{}, seeds...), val...), corpus...)
	m, err := New(tinyConfig(), space)
	if err != nil {
		t.Fatal(err)
	}
	// Pre-training validation HR@10 from random parameters.
	td := TrainData{Seeds: seeds, Validation: val, Corpus: corpus, F: dist.FrechetDist}
	h, err := m.Train(td)
	if err != nil {
		t.Fatal(err)
	}
	if len(h.EpochLoss) != m.Cfg.Epochs || len(h.ValHR10) != m.Cfg.Epochs {
		t.Fatalf("history lengths = %d/%d", len(h.EpochLoss), len(h.ValHR10))
	}
	if h.Theta <= 0 {
		t.Errorf("theta = %v", h.Theta)
	}
	if h.Triplets == 0 {
		t.Error("no triplets generated during training")
	}
	// Loss decreases from first to best epoch.
	if h.EpochLoss[len(h.EpochLoss)-1] > h.EpochLoss[0]*1.5 {
		t.Errorf("loss grew: %v -> %v", h.EpochLoss[0], h.EpochLoss[len(h.EpochLoss)-1])
	}
	// The model must beat a random ranking: expected random HR@10 on 16
	// validation items is 10/16 ≈ 0.63 only because self is included; use
	// the recorded best which must be at least as good as epoch 0.
	if h.BestHR10 < h.ValHR10[0]-1e-9 {
		t.Errorf("best HR %v below first epoch %v", h.BestHR10, h.ValHR10[0])
	}
	if h.BestEpoch < 0 || h.BestEpoch >= m.Cfg.Epochs {
		t.Errorf("best epoch = %d", h.BestEpoch)
	}
}

// TestTrainWithoutValidationKeepsTrainedWeights is the regression test for
// model selection with no validation set: HR@10 is NaN every epoch, and a
// NaN never compares greater than the best so far, so Train used to put
// the initial (untrained) weights back when it finished. The weights
// kept must be the last epoch's.
func TestTrainWithoutValidationKeepsTrainedWeights(t *testing.T) {
	cfg, space, td := trainFixture(t)
	td.Validation = nil
	m, err := New(cfg, space)
	if err != nil {
		t.Fatal(err)
	}
	initial := paramBits(m)
	var last *Checkpoint
	td.CheckpointEvery = 1
	td.OnCheckpoint = func(c *Checkpoint) error { last = c; return nil }
	h, err := m.Train(td)
	if err != nil {
		t.Fatal(err)
	}
	if last == nil || last.Epoch != cfg.Epochs {
		t.Fatalf("last checkpoint %+v, want one at epoch %d", last, cfg.Epochs)
	}
	got := paramBits(m)
	if reflect.DeepEqual(got, initial) {
		t.Fatal("Train without a validation set restored the initial weights")
	}
	var want []uint64
	for _, g := range last.Params {
		for _, v := range g {
			want = append(want, math.Float64bits(v))
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("weights after Train are not the last epoch's")
	}
	if h.BestEpoch != cfg.Epochs-1 {
		t.Errorf("BestEpoch = %d, want the last epoch %d", h.BestEpoch, cfg.Epochs-1)
	}
	for _, hr := range h.ValHR10 {
		if !math.IsNaN(hr) {
			t.Errorf("ValHR10 = %v without a validation set, want NaN", h.ValHR10)
			break
		}
	}
}

func TestTrainSeedsTooFew(t *testing.T) {
	ts := genTrajs(4, 14)
	m, err := New(tinyConfig(), ts)
	if err != nil {
		t.Fatal(err)
	}
	_, err = m.Train(TrainData{Seeds: ts[:2], F: dist.DTWDist})
	if err == nil {
		t.Error("tiny seed set accepted")
	}
}

func TestApproxDistanceOrdering(t *testing.T) {
	// After training, a trajectory should be closer (in approximate
	// distance) to a noisy copy of itself than to a random other one.
	seeds := genTrajs(24, 15)
	val := genTrajs(12, 16)
	m, err := New(tinyConfig(), append(seeds, val...))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Train(TrainData{Seeds: seeds, Validation: val, F: dist.FrechetDist}); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	var correct int
	const trials = 10
	for i := 0; i < trials; i++ {
		base := seeds[i]
		noisy := slices.Clone(base)
		for j := range noisy {
			noisy[j] = noisy[j].Add(geo.Point{X: rng.NormFloat64() * 5, Y: rng.NormFloat64() * 5})
		}
		other := seeds[(i+7)%len(seeds)]
		if embedDist(m, base, noisy) < embedDist(m, base, other) {
			correct++
		}
	}
	if correct < trials*7/10 {
		t.Errorf("approximate distance ordered only %d/%d pairs", correct, trials)
	}
}

// embedDist is the Euclidean distance between the embeddings of a and b,
// the learned approximation of their trajectory distance.
func embedDist(m *Model, a, b geo.Trajectory) float64 {
	va, vb := m.Embed(a), m.Embed(b)
	var sum float64
	for i := range va {
		d := va[i] - vb[i]
		sum += d * d
	}
	return math.Sqrt(sum)
}
