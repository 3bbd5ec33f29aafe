package baselines

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"traj2hash/internal/core"
	"traj2hash/internal/dist"
	"traj2hash/internal/geo"
	"traj2hash/internal/hamming"
	"traj2hash/internal/nn"
)

// HashAdapter binarizes a (frozen) neural encoder for the Hamming-space
// comparison of Table II: "we leverage the proposed ranking-based hashing
// objective with an extra trainable linear layer to convert the dense
// vectors from baselines into hash codes" (Section V-A3). Only the linear
// layer trains; the encoder's embeddings are precomputed, so adaptation is
// cheap. The crucial asymmetry versus Traj2Hash — baselines see only the
// seed set, never the generated triplet corpus — is what Table II measures.
type HashAdapter struct {
	enc   core.Encoder
	W     *nn.Linear
	Bits  int
	Alpha float64
	beta  float64
}

// NewHashAdapter creates the adapter head over the encoder.
func NewHashAdapter(enc core.Encoder, bits int, alpha float64, seed int64) *HashAdapter {
	rng := rand.New(rand.NewSource(seed))
	return &HashAdapter{
		enc:   enc,
		W:     nn.NewLinear(enc.Dim(), bits, rng),
		Bits:  bits,
		Alpha: alpha,
		beta:  1,
	}
}

// AdapterConfig controls the ranking-objective fine-tune.
type AdapterConfig struct {
	Epochs     int
	M          int // samples per anchor, paired into M/2 (pos, neg) pairs
	LR         float64
	BetaGrowth float64
	Theta      float64 // 0 = auto
	Seed       int64
}

// DefaultAdapterConfig mirrors the main training settings.
func DefaultAdapterConfig() AdapterConfig {
	return AdapterConfig{Epochs: 30, M: 10, LR: 1e-2, BetaGrowth: 1.1, Seed: 1}
}

// Train fits the linear hash layer with the ranking objective on the seed
// set's exact similarities.
func (h *HashAdapter) Train(cfg AdapterConfig, seeds []geo.Trajectory, f dist.Func) error {
	if len(seeds) < cfg.M+1 {
		return fmt.Errorf("baselines: adapter needs at least M+1=%d seeds, got %d", cfg.M+1, len(seeds))
	}
	// Precompute frozen embeddings once.
	embs := h.enc.EmbedAll(seeds)
	d := dist.Matrix(f, seeds)
	theta := cfg.Theta
	if theta <= 0 {
		if mean := dist.MeanOffDiagonal(d); mean > 0 {
			theta = 1 / mean
		} else {
			theta = 1
		}
	}
	s := dist.Similarity(d, theta)
	rng := rand.New(rand.NewSource(cfg.Seed))

	opt := nn.NewAdam(h.W.Params(), cfg.LR)
	n := len(seeds)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		var terms []*nn.Tensor
		for i := 0; i < n; i++ {
			// Sample M others, pair most-similar half against the rest.
			ids := rng.Perm(n)[:min(cfg.M+1, n)]
			ids = removeSelf(ids, i)[:min(cfg.M, n-1)]
			sort.Slice(ids, func(a, b int) bool { return s[i][ids[a]] > s[i][ids[b]] })
			ui := h.relaxed(embs[i])
			for k := 0; k < len(ids)/2; k++ {
				p := ids[k]
				ng := ids[len(ids)-1-k]
				if s[i][p] <= s[i][ng] {
					continue
				}
				up := h.relaxed(embs[p])
				un := h.relaxed(embs[ng])
				terms = append(terms, core.RankingHinge(ui, up, un, h.Alpha))
			}
		}
		if len(terms) == 0 {
			continue
		}
		total := terms[0]
		for _, t := range terms[1:] {
			total = nn.Add(total, t)
		}
		loss := nn.Scale(total, 1/float64(len(terms)))
		if v := loss.Scalar(); math.IsNaN(v) {
			return fmt.Errorf("baselines: adapter loss is NaN at epoch %d", epoch)
		}
		loss.Backward()
		opt.Step()
		h.beta *= cfg.BetaGrowth
	}
	return nil
}

// relaxed maps a frozen embedding through the head with the tanh(β·)
// relaxation.
func (h *HashAdapter) relaxed(emb []float64) *nn.Tensor {
	x := nn.FromVec(append([]float64(nil), emb...))
	return nn.Tanh(nn.Scale(h.W.Forward(x), h.beta))
}

// Code hashes a trajectory through the frozen encoder and the head.
func (h *HashAdapter) Code(t geo.Trajectory) hamming.Code {
	out := h.W.Forward(nn.FromVec(h.enc.Embed(t)))
	return hamming.FromSigns(out.Data)
}

// CodeAll hashes a batch.
func (h *HashAdapter) CodeAll(ts []geo.Trajectory) []hamming.Code {
	out := make([]hamming.Code, len(ts))
	for i, t := range ts {
		out[i] = h.Code(t)
	}
	return out
}

func removeSelf(ids []int, self int) []int {
	out := ids[:0]
	for _, id := range ids {
		if id != self {
			out = append(out, id)
		}
	}
	return out
}
