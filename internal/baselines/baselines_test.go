package baselines

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"traj2hash/internal/core"
	"traj2hash/internal/data"
	"traj2hash/internal/dist"
	"traj2hash/internal/faultinject"
	"traj2hash/internal/geo"
	"traj2hash/internal/hamming"
	"traj2hash/internal/nn"
)

// tinyBase is the baselines' configuration as internal/experiments builds
// it — the paper model's settings with its own contributions switched off
// (WMSE only) — at test size.
func tinyBase() core.Config {
	cfg := core.DefaultConfig(16)
	cfg.Gamma, cfg.UseTriplets, cfg.UseGrids = 0, false, false
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

// baseline is what every neural baseline is: a core.Trainable whose
// forward pass is reachable for the taped-vs-tape-free comparison.
type baseline interface {
	core.Trainable
	core.Net
}

// allEncoders builds one of each neural baseline over the same space.
func allEncoders(t *testing.T, cfg core.Config, space []geo.Trajectory) []baseline {
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
	return []baseline{
		nt,
		ntns,
		t2v,
		NewCLTSim(cfg, space),
		NewTransformer(cfg, space),
		NewTrajGAT(cfg, space),
	}
}

// paramValues deep-copies an encoder's parameter values, in the form
// SetParams takes back.
func paramValues(ps []*nn.Tensor) [][]float64 {
	out := make([][]float64, len(ps))
	for i, p := range ps {
		out[i] = append([]float64(nil), p.Data...)
	}
	return out
}

// bits maps values to their IEEE-754 bit patterns, so reflect.DeepEqual
// compares them exactly (NaN-safe, −0 ≠ +0).
func bits(groups ...[]float64) [][]uint64 {
	out := make([][]uint64, len(groups))
	for i, g := range groups {
		out[i] = make([]uint64, len(g))
		for j, v := range g {
			out[i][j] = math.Float64bits(v)
		}
	}
	return out
}

// parentEmbedAllAllocs is what embedding 100 trajectories cost at the
// parent commit, where baselines.EmbedAll built a full autograd graph per
// trajectory (measured there with this file's tinyBase and gen(100, 21)).
var parentEmbedAllAllocs = map[string]float64{
	"NeuTraj": 147801, "NT-No-SAM": 119001, "t2vec": 125301,
	"CL-TSim": 119001, "Transformer": 49501, "TrajGAT": 64203,
}

// TestBaselinesEncoderContract holds all six baselines to what they now
// inherit from the shared encoder surface: the core.Encoder contract, the
// bit-exact agreement of every tape-free entry point with the taped
// forward pass that training differentiates, and a tape-free batch embed
// that costs a sliver of the per-trajectory graphs it replaced.
func TestBaselinesEncoderContract(t *testing.T) {
	cfg := tinyBase()
	space := gen(100, 21)
	probes := make([]geo.Trajectory, 0, 4)
	for i, n := range []int{2, 10, cfg.MaxLen, 3 * cfg.MaxLen} {
		probes = append(probes, space[i].Resample(n))
	}
	encs := allEncoders(t, cfg, space)
	if len(encs) != len(parentEmbedAllAllocs) {
		t.Fatalf("%d baselines, want %d", len(encs), len(parentEmbedAllAllocs))
	}
	for _, e := range encs {
		t.Run(e.Kind(), func(t *testing.T) {
			parent, ok := parentEmbedAllAllocs[e.Kind()]
			if !ok {
				t.Fatalf("unexpected name %q", e.Kind())
			}
			if e.Dim() != cfg.Dim {
				t.Fatalf("Dim = %d, want the latent dimension %d", e.Dim(), cfg.Dim)
			}
			if len(e.Params()) == 0 {
				t.Fatal("no parameters")
			}
			// A few taped passes first, so NeuTraj's memory is not all zero
			// and the comparisons below read something.
			for _, tr := range space[:8] {
				e.Forward(nil, tr)
			}

			// The core.Encoder contract.
			all := e.EmbedAll(space[:12])
			par := e.EmbedAllParallel(space[:12], 4)
			for i, tr := range space[:12] {
				one := e.Embed(tr)
				if len(one) != e.Dim() {
					t.Fatalf("Embed returned %d values, Dim() = %d", len(one), e.Dim())
				}
				for _, v := range one {
					if math.IsNaN(v) || math.IsInf(v, 0) {
						t.Fatal("non-finite embedding")
					}
				}
				if !reflect.DeepEqual(bits(one, all[i], par[i]), bits(e.Embed(tr), one, one)) {
					t.Fatalf("item %d: Embed, a second Embed, EmbedAll and EmbedAllParallel disagree", i)
				}
				if code := e.Code(tr); code.Bits != e.Dim() || !hamming.Equal(code, hamming.FromSigns(one)) {
					t.Fatalf("item %d: Code != FromSigns(Embed)", i)
				}
			}
			if codes := e.CodeAll(space[:3]); len(codes) != 3 || !hamming.Equal(codes[2], e.Code(space[2])) {
				t.Error("CodeAll disagrees with Code")
			}

			// Tape-free == taped, bit for bit, at every length class. The
			// taped pass is a training pass — NeuTraj's writes its memory —
			// so the state it read is put back before the next comparison.
			all = e.EmbedAll(probes)
			par = e.EmbedAllParallel(probes, 3)
			before := paramValues(e.Params())
			for i, p := range probes {
				want := e.Forward(nil, p).Data
				if err := e.SetParams(before); err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(bits(e.Embed(p), all[i], par[i]), bits(want, want, want)) {
					t.Fatalf("len(t)=%d: tape-free bits differ from the taped forward pass", len(p))
				}
			}

			allocs := testing.AllocsPerRun(3, func() { e.EmbedAll(space) })
			if allocs > parent/10 {
				t.Errorf("EmbedAll of 100 trajectories allocates %.0f times, budget %.0f (a tenth of the parent's %.0f): something stayed on the tape",
					allocs, parent/10, parent)
			}
			t.Logf("EmbedAll of 100 trajectories: %.0f allocs (parent %.0f)", allocs, parent)
		})
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
	res, err := e.Train(core.TrainData{Seeds: seeds, Validation: val, F: dist.FrechetDist})
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
	e := NewTransformer(tinyBase(), space)
	if _, err := e.Train(core.TrainData{Seeds: space[:2], F: dist.DTWDist}); err == nil {
		t.Error("tiny seed set accepted")
	}
	// The self-supervised baselines need a corpus instead.
	if _, err := NewCLTSim(tinyBase(), space).Train(core.TrainData{Seeds: space, F: dist.DTWDist}); err == nil {
		t.Error("CL-TSim trained on an empty corpus")
	}
}

func TestNeuTrajSAMMemoryChanges(t *testing.T) {
	space := gen(10, 6)
	nt, err := NewNeuTraj(tinyBase(), space)
	if err != nil {
		t.Fatal(err)
	}
	// Inference must be order-independent: SAM memory is written only by
	// taped (training) passes.
	first := nt.Embed(space[0])
	nt.Embed(space[1]) // other encodings must not perturb the memory
	again := nt.Embed(space[0])
	if euclid(first, again) > 1e-12 {
		t.Error("inference encoding depends on prior queries")
	}
	for _, v := range nt.memory.Data {
		if v != 0 {
			t.Fatal("Embed wrote SAM memory")
		}
	}
	// A training pass does write memory.
	nt.Forward(nil, space[0])
	var nonZero bool
	for _, v := range nt.memory.Data {
		if v != 0 {
			nonZero = true
			break
		}
	}
	if !nonZero {
		t.Error("the taped pass did not write SAM memory")
	}
}

// TestNeuTrajMemoryTravelsWithWeights is the regression test of the
// model-selection hole: the SAM memory is training state every Forward
// reads, but it was not among Params(), so restoring a snapshot (the
// best-validation epoch, a rollback target, a checkpoint) paired those
// weights with whatever memory the last epoch left behind.
func TestNeuTrajMemoryTravelsWithWeights(t *testing.T) {
	seeds := gen(12, 16)
	cfg := tinyBase()
	cfg.Epochs = 1
	nt, err := NewNeuTraj(cfg, seeds)
	if err != nil {
		t.Fatal(err)
	}
	td := core.TrainData{Seeds: seeds, F: dist.FrechetDist}
	if _, err := nt.Train(td); err != nil {
		t.Fatal(err)
	}
	snap := paramValues(nt.Params())
	memory := append([]float64(nil), nt.memory.Data...)
	before := nt.Embed(seeds[0])
	if _, err := nt.Train(td); err != nil { // one more epoch
		t.Fatal(err)
	}
	if reflect.DeepEqual(bits(memory), bits(nt.memory.Data)) {
		t.Fatal("another epoch left the SAM memory untouched; the test would prove nothing")
	}
	if err := nt.SetParams(snap); err != nil {
		t.Fatal(err)
	}
	if after := nt.Embed(seeds[0]); !reflect.DeepEqual(bits(after), bits(before)) {
		t.Errorf("restoring a snapshot did not restore the embedding:\nbefore %v\nafter  %v", before, after)
	}
}

func TestT2VecTrainReducesLoss(t *testing.T) {
	corpus := gen(30, 7)
	cfg := tinyBase()
	cfg.Epochs = 4
	t2v, err := NewT2Vec(cfg, corpus, 400)
	if err != nil {
		t.Fatal(err)
	}
	h, err := t2v.Train(core.TrainData{Corpus: corpus})
	if err != nil {
		t.Fatal(err)
	}
	losses := h.EpochLoss
	if len(losses) != 4 {
		t.Fatalf("losses = %v", losses)
	}
	if losses[3] > losses[0] {
		t.Errorf("autoencoder loss grew: %v", losses)
	}
}

func TestCLTSimTrainStableAndInformative(t *testing.T) {
	corpus := gen(24, 8)
	cl := NewCLTSim(tinyBase(), corpus)
	h, err := cl.Train(core.TrainData{Corpus: corpus})
	if err != nil {
		t.Fatal(err)
	}
	losses := h.EpochLoss
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
	rng := rand.New(rand.NewSource(8))
	var correct int
	const trials = 8
	for i := 0; i < trials; i++ {
		src := corpus[i]
		view := cl.augment(src, rng)
		other := corpus[(i+11)%len(corpus)]
		a := euclid(cl.Embed(src), cl.Embed(view))
		b := euclid(cl.Embed(src), cl.Embed(other))
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
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 10; trial++ {
		v := cl.augment(corpus[0], rng)
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
	for _, tr := range space[:5] {
		for _, p := range tr {
			path := qt.Path(p)
			if len(path) == 0 || path[0] != 0 {
				t.Fatalf("path = %v", path)
			}
			if len(path) > 7 { // root at depth 0, leaves at most at maxDepth 6
				t.Fatalf("path %v is deeper than the max depth", path)
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
		near := slices.Clone(base)
		for j := range near {
			near[j] = near[j].Add(geo.Point{X: 3, Y: -2})
		}
		farTraj := slices.Clone(base)
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

// frozenEncoder is a core.Encoder with a closed-form embedding, so the
// adapter's input is the same at every commit.
type frozenEncoder struct{}

func (frozenEncoder) Kind() string { return "frozen" }
func (frozenEncoder) Dim() int     { return 8 }
func (frozenEncoder) Embed(t geo.Trajectory) []float64 {
	v := make([]float64, 8)
	for k := range v {
		p := t[k*(len(t)-1)/7]
		v[k] = (p.X - t[0].X + 2*(p.Y-t[0].Y)) / 1000
	}
	return v
}
func (e frozenEncoder) EmbedAll(ts []geo.Trajectory) [][]float64 {
	out := make([][]float64, len(ts))
	for i, t := range ts {
		out[i] = e.Embed(t)
	}
	return out
}
func (e frozenEncoder) EmbedAllParallel(ts []geo.Trajectory, _ int) [][]float64 {
	return e.EmbedAll(ts)
}
func (e frozenEncoder) Code(t geo.Trajectory) hamming.Code { return hamming.FromSigns(e.Embed(t)) }
func (e frozenEncoder) CodeAll(ts []geo.Trajectory) []hamming.Code {
	out := make([]hamming.Code, len(ts))
	for i, t := range ts {
		out[i] = e.Code(t)
	}
	return out
}

// TestHashAdapterBitsUnchanged pins the adapter's trained head, given
// identical input embeddings, to the bits it had when the ranking hinge
// was spelled out inline instead of calling core.RankingHinge: the hash is
// of W and B after the same ten epochs at the parent commit.
func TestHashAdapterBitsUnchanged(t *testing.T) {
	ad := NewHashAdapter(frozenEncoder{}, 16, 2, 1)
	acfg := DefaultAdapterConfig()
	acfg.Epochs = 10
	acfg.M = 4
	if err := ad.Train(acfg, gen(20, 12), dist.FrechetDist); err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	for _, p := range ad.W.Params() {
		for _, v := range p.Data {
			h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)))
		}
	}
	if got, want := h.Sum64(), uint64(0x674aad782c651cfc); got != want {
		t.Errorf("trained adapter head hashes to %#x, want %#x", got, want)
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

// TestAllBaselinesTrainable exercises one epoch of every baseline over a
// shared space — an integration smoke test. It trains with no validation
// set, so the run must hand back the trained weights, not the initial
// ones.
func TestAllBaselinesTrainable(t *testing.T) {
	seeds := gen(12, 14)
	cfg := tinyBase()
	cfg.Epochs = 1
	cfg.M = 4
	for _, e := range allEncoders(t, cfg, seeds) {
		before := paramValues(e.Params())
		// The self-supervised two read only the corpus.
		if _, err := e.Train(core.TrainData{Seeds: seeds, Corpus: seeds, F: dist.DTWDist}); err != nil {
			t.Errorf("%s: %v", e.Kind(), err)
		}
		if !paramsMoved(e.Params(), before) {
			t.Errorf("%s: every weight equals its initial value after training", e.Kind())
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
	before := paramValues(e.Params())
	res, err := e.Train(core.TrainData{Seeds: seeds, F: dist.FrechetDist})
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
	res, err = NewTransformer(cfg, seeds).Train(core.TrainData{Seeds: seeds, Validation: val, F: dist.FrechetDist})
	if err != nil {
		t.Fatal(err)
	}
	if res.BestHR10 < 0 || res.BestHR10 != res.ValHR10[res.BestEpoch] {
		t.Errorf("with validation: BestHR10 %v at epoch %d, ValHR10 %v", res.BestHR10, res.BestEpoch, res.ValHR10)
	}
}

// TestBaselineResumeBitwiseIdentical: the baselines inherit resumable
// training. A run canceled after epoch 2 flushes its last checkpoint; that
// checkpoint, round-tripped through its byte format, resumes a freshly
// built encoder to exactly the parameters — NeuTraj's memory among them —
// and history of a run that was never interrupted. NeuTraj covers the
// non-gradient state, Transformer the plain WMSE path, CL-TSim the
// BatchLoss path and its per-epoch augmentation stream.
func TestBaselineResumeBitwiseIdentical(t *testing.T) {
	seeds, val := gen(14, 17), gen(12, 18)
	space := append(append([]geo.Trajectory{}, seeds...), val...)
	cfg := tinyBase()
	cfg.Epochs = 4
	td := core.TrainData{Seeds: seeds, Validation: val, Corpus: space, F: dist.FrechetDist}
	builders := map[string]func() baseline{
		"NeuTraj": func() baseline {
			nt, err := NewNeuTraj(cfg, space)
			if err != nil {
				t.Fatal(err)
			}
			return nt
		},
		"Transformer": func() baseline { return NewTransformer(cfg, space) },
		"CL-TSim":     func() baseline { return NewCLTSim(cfg, space) },
	}
	for name, build := range builders {
		t.Run(name, func(t *testing.T) {
			full := build()
			hFull, err := full.Train(td)
			if err != nil {
				t.Fatal(err)
			}

			// The interrupted run: canceled at the first step of epoch 2.
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var stream bytes.Buffer
			tdA := td
			tdA.StepHook = func(epoch, _ int) {
				if epoch == 2 {
					cancel()
				}
			}
			tdA.OnCheckpoint = func(c *core.Checkpoint) error {
				stream.Reset()
				return c.Save(&stream)
			}
			if _, err := build().TrainCtx(ctx, tdA); !errors.Is(err, context.Canceled) {
				t.Fatalf("interrupted run returned %v, want context.Canceled", err)
			}
			ckpt, err := core.LoadCheckpoint(&stream)
			if err != nil {
				t.Fatal(err)
			}
			if ckpt.Epoch != 2 || ckpt.Kind != name {
				t.Fatalf("flushed checkpoint is epoch %d of %q, want epoch 2 of %q", ckpt.Epoch, ckpt.Kind, name)
			}

			resumed := build()
			tdB := td
			tdB.Resume = ckpt
			hResumed, err := resumed.Train(tdB)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(bits(paramValues(full.Params())...), bits(paramValues(resumed.Params())...)) {
				t.Error("resumed run's final parameters are not bitwise identical to the uninterrupted run")
			}
			if !reflect.DeepEqual(bits(hFull.EpochLoss, hFull.ValHR10), bits(hResumed.EpochLoss, hResumed.ValHR10)) || hFull.BestEpoch != hResumed.BestEpoch {
				t.Errorf("histories diverged:\nfull    %+v\nresumed %+v", hFull, hResumed)
			}
		})
	}
}

// TestBaselineDivergenceRollsBack: the baselines inherit the divergence
// guard. A poisoned optimizer step used to leave NaN weights behind a nil
// error; now the epoch is rolled back and replayed, or — with no boundary
// to roll back to — training fails with core.ErrDiverged.
func TestBaselineDivergenceRollsBack(t *testing.T) {
	seeds := gen(12, 19)
	td := core.TrainData{Seeds: seeds, F: dist.FrechetDist}
	poisonAt := func(e baseline, epoch int) core.TrainData {
		p := faultinject.NewGradPoisoner(faultinject.Site{Epoch: epoch, Step: 0})
		out := td
		out.StepHook = func(epoch, step int) { p.MaybePoison(epoch, step, e.Params()) }
		return out
	}

	e := NewTransformer(tinyBase(), seeds)
	h, err := e.Train(poisonAt(e, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(h.Diverged, []int{1}) {
		t.Errorf("Diverged = %v, want [1]", h.Diverged)
	}
	for _, p := range e.Params() {
		for _, v := range p.Data {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatal("non-finite weights survived the rollback")
			}
		}
	}

	e = NewTransformer(tinyBase(), seeds)
	if _, err := e.Train(poisonAt(e, 0)); !errors.Is(err, core.ErrDiverged) {
		t.Errorf("poisoning the first epoch returned %v, want core.ErrDiverged", err)
	}
}
