// Package baselines implements the six comparison methods of Tables I and
// II (Section V-A3) — NeuTraj, NT-No-SAM, t2vec, CL-TSim, Transformer, and
// TrajGAT — plus the Fresh curve LSH and the trainable hash adapter that
// binarizes the neural baselines' embeddings with the paper's ranking
// objective.
package baselines

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"traj2hash/internal/dist"
	"traj2hash/internal/eval"
	"traj2hash/internal/geo"
	"traj2hash/internal/nn"
)

// Encoder is a neural trajectory encoder: it maps a trajectory to a 1×dim
// graph tensor (with gradients during training).
type Encoder interface {
	// Name identifies the method in result tables.
	Name() string
	// Forward encodes one trajectory into a 1×OutDim tensor.
	Forward(t geo.Trajectory) *nn.Tensor
	// Params returns the trainable parameters.
	Params() []*nn.Tensor
	// OutDim is the embedding dimension.
	OutDim() int
}

// Embed runs Forward and copies out a plain vector.
func Embed(e Encoder, t geo.Trajectory) []float64 {
	out := e.Forward(t)
	v := make([]float64, len(out.Data))
	copy(v, out.Data)
	return v
}

// EmbedAll embeds a batch.
func EmbedAll(e Encoder, ts []geo.Trajectory) [][]float64 {
	out := make([][]float64, len(ts))
	for i, t := range ts {
		out[i] = Embed(e, t)
	}
	return out
}

// BaseConfig collects the hyper-parameters shared by all baselines; they
// mirror the paper's fair-comparison settings (Section V-A5: same latent
// dimension, sample size, and batch size as Traj2Hash).
type BaseConfig struct {
	Dim       int
	MaxLen    int
	M         int // WMSE samples per anchor
	Epochs    int
	BatchSize int
	LR        float64
	ClipNorm  float64
	Theta     float64 // 0 = auto
	Seed      int64
}

// DefaultBaseConfig mirrors core.DefaultConfig at the given dimension.
func DefaultBaseConfig(dim int) BaseConfig {
	return BaseConfig{
		Dim: dim, MaxLen: 24, M: 10, Epochs: 20, BatchSize: 20,
		LR: 1e-3, ClipNorm: 5, Seed: 1,
	}
}

// prepTraj bounds encoder input length (the exact distances always use the
// raw trajectory).
func prepTraj(t geo.Trajectory, maxLen int) geo.Trajectory {
	if len(t) > maxLen {
		return t.Resample(maxLen)
	}
	return t
}

// pointFeatures converts a trajectory into an n×2 tensor of normalized
// coordinates.
func pointFeatures(t geo.Trajectory, stats geo.Stats) *nn.Tensor {
	x := nn.New(len(t), 2)
	for i, p := range t {
		q := stats.Normalize(p)
		x.Set(i, 0, q.X)
		x.Set(i, 1, q.Y)
	}
	return x
}

// TrainResult records a metric-learning run.
type TrainResult struct {
	EpochLoss []float64
	ValHR10   []float64
	BestEpoch int
	BestHR10  float64
	Theta     float64
}

// TrainWMSE fits an encoder with the weighted-MSE metric-learning objective
// of Equation 17 (the NeuTraj-style seed-supervised training every
// distance-aware baseline uses), with best-validation-HR@10 selection (an
// empty validation set keeps the last epoch).
func TrainWMSE(e Encoder, cfg BaseConfig, seeds, val []geo.Trajectory, f dist.Func) (*TrainResult, error) {
	if len(seeds) < cfg.M+1 {
		return nil, fmt.Errorf("baselines: need at least M+1=%d seeds, got %d", cfg.M+1, len(seeds))
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	labelled := append(append([]geo.Trajectory{}, seeds...), val...)
	d := dist.Matrix(f, labelled)
	theta := cfg.Theta
	if theta <= 0 {
		if mean := dist.MeanOffDiagonal(d); mean > 0 {
			theta = 1 / mean
		} else {
			theta = 1
		}
	}
	s := dist.Similarity(d, theta)
	ns := len(seeds)

	var valTruth [][]int
	if len(val) > 0 {
		valTruth = make([][]int, len(val))
		for i := range val {
			valTruth[i] = eval.TopK(d[ns+i][ns:], 10)
		}
	}

	samples := buildSampleSets(s, ns, cfg.M, rng)
	opt := nn.NewAdam(e.Params(), cfg.LR)
	res := &TrainResult{Theta: theta, BestHR10: -1}
	best := snapshotParams(e.Params())

	// Encoders with train/eval modes (NeuTraj's SAM writes memory only in
	// training) are toggled around the validation pass.
	modal, hasModes := e.(interface{ SetTraining(bool) })
	setTraining := func(v bool) {
		if hasModes {
			modal.SetTraining(v)
		}
	}
	defer setTraining(false)

	anchors := make([]int, ns)
	for i := range anchors {
		anchors[i] = i
	}
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		setTraining(true)
		rng.Shuffle(len(anchors), func(i, j int) { anchors[i], anchors[j] = anchors[j], anchors[i] })
		var sum float64
		var steps int
		for lo := 0; lo < len(anchors); lo += cfg.BatchSize {
			hi := lo + cfg.BatchSize
			if hi > len(anchors) {
				hi = len(anchors)
			}
			loss := wmseBatch(e, seeds, s, samples, anchors[lo:hi])
			if loss == nil {
				continue
			}
			sum += loss.Scalar()
			steps++
			loss.Backward()
			if cfg.ClipNorm > 0 {
				nn.ClipGradNorm(opt.Params, cfg.ClipNorm)
			}
			opt.Step()
		}
		if steps > 0 {
			res.EpochLoss = append(res.EpochLoss, sum/float64(steps))
		} else {
			res.EpochLoss = append(res.EpochLoss, 0)
		}
		setTraining(false)
		hr := validationHR10(e, val, valTruth)
		res.ValHR10 = append(res.ValHR10, hr)
		// Model selection keeps the best validation epoch. With no
		// validation set there is nothing to select on (hr is NaN and
		// compares false; BestHR10 stays -1), so the last epoch that left
		// finite weights is the one to keep.
		if hr > res.BestHR10 {
			res.BestHR10 = hr
			res.BestEpoch = epoch
			best = snapshotParams(e.Params())
		} else if len(val) == 0 && paramsFinite(e.Params()) {
			res.BestEpoch = epoch
			best = snapshotParams(e.Params())
		}
	}
	restoreParams(e.Params(), best)
	return res, nil
}

// paramsFinite reports whether every parameter value is a finite number.
func paramsFinite(ps []*nn.Tensor) bool {
	for _, p := range ps {
		for _, v := range p.Data {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
	}
	return true
}

type sampleSet struct {
	ids     []int
	weights []float64
}

func buildSampleSets(s [][]float64, ns, m int, rng *rand.Rand) []sampleSet {
	out := make([]sampleSet, ns)
	for i := 0; i < ns; i++ {
		order := make([]int, 0, ns-1)
		for j := 0; j < ns; j++ {
			if j != i {
				order = append(order, j)
			}
		}
		row := s[i]
		sort.Slice(order, func(a, b int) bool { return row[order[a]] > row[order[b]] })
		half := m / 2
		if half > len(order) {
			half = len(order)
		}
		ids := append([]int(nil), order[:half]...)
		for len(ids) < m && len(order) > 0 {
			ids = append(ids, order[rng.Intn(len(order))])
		}
		w := make([]float64, len(ids))
		var total float64
		for k := range w {
			w[k] = float64(len(ids) - k)
			total += w[k]
		}
		for k := range w {
			w[k] /= total
		}
		out[i] = sampleSet{ids: ids, weights: w}
	}
	return out
}

func wmseBatch(e Encoder, seeds []geo.Trajectory, s [][]float64, samples []sampleSet, batch []int) *nn.Tensor {
	cache := map[int]*nn.Tensor{}
	embed := func(i int) *nn.Tensor {
		if t, ok := cache[i]; ok {
			return t
		}
		t := e.Forward(seeds[i])
		cache[i] = t
		return t
	}
	var terms []*nn.Tensor
	for _, i := range batch {
		hi := embed(i)
		for k, j := range samples[i].ids {
			g := nn.Exp(nn.Scale(nn.EuclideanDistance(hi, embed(j)), -1))
			diff := nn.AddScalar(g, -s[i][j])
			terms = append(terms, nn.Scale(nn.Square(diff), samples[i].weights[k]))
		}
	}
	if len(terms) == 0 {
		return nil
	}
	total := terms[0]
	for _, t := range terms[1:] {
		total = nn.Add(total, t)
	}
	return nn.Scale(total, 1/float64(len(batch)))
}

func validationHR10(e Encoder, val []geo.Trajectory, truth [][]int) float64 {
	if len(val) == 0 {
		return math.NaN()
	}
	embs := EmbedAll(e, val)
	returned := make([][]int, len(val))
	for i := range val {
		row := make([]float64, len(val))
		for j := range val {
			var sum float64
			for k := range embs[i] {
				d := embs[i][k] - embs[j][k]
				sum += d * d
			}
			row[j] = sum
		}
		returned[i] = eval.TopK(row, 10)
	}
	return eval.HitRatio(returned, truth, 10)
}

func snapshotParams(ps []*nn.Tensor) [][]float64 {
	out := make([][]float64, len(ps))
	for i, p := range ps {
		out[i] = append([]float64(nil), p.Data...)
	}
	return out
}

func restoreParams(ps []*nn.Tensor, snap [][]float64) {
	for i, p := range ps {
		copy(p.Data, snap[i])
	}
}
