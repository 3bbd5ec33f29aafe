// Package baselines implements the six comparison methods of Tables I and
// II (Section V-A3) — NeuTraj, NT-No-SAM, t2vec, CL-TSim, Transformer, and
// TrajGAT — plus the Fresh curve LSH and the trainable hash adapter that
// binarizes the neural baselines' embeddings with the paper's ranking
// objective.
//
// Each neural baseline is a core.Net — its parameters and its forward
// pass — embedding the core.NetEncoder built over it, so it is a
// core.Trainable like the paper's model: served tape-free, and fitted by
// the one training loop under the paper's fair-comparison settings
// (Section V-A5: same latent dimension, sample size, and batch size as
// Traj2Hash). The supervised four configure that loop down to the WMSE
// loss of Equation 17 (Config.Gamma = 0, UseTriplets off); t2vec and
// CL-TSim bring their own BatchLoss and train on the corpus alone.
package baselines

import (
	"math/rand"

	"traj2hash/internal/core"
	"traj2hash/internal/geo"
	"traj2hash/internal/nn"
)

// newBase returns the shared encoder surface for the baseline net to
// embed, under the name it carries in result tables, and the generator its
// parameters initialize from. A baseline has no hash layer — its embedding
// is the latent state itself — so the embedding width HashBits is pinned
// to the latent dimension Dim (HashAdapter adds the Table II hash head).
func newBase(name string, cfg core.Config, net core.Net) (core.NetEncoder, *rand.Rand) {
	cfg.HashBits = cfg.Dim
	rng := rand.New(rand.NewSource(cfg.Seed))
	return core.NewNetEncoder(name, cfg, rng, net), rng
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
// coordinates, on s when the pass is tape-free.
func pointFeatures(s *nn.Scratch, t geo.Trajectory, stats geo.Stats) *nn.Tensor {
	x := s.New(len(t), 2)
	for i, p := range t {
		q := stats.Normalize(p)
		x.Set(i, 0, q.X)
		x.Set(i, 1, q.Y)
	}
	return x
}
