package baselines

import (
	"math/rand"

	"traj2hash/internal/core"
	"traj2hash/internal/geo"
	"traj2hash/internal/nn"
)

// CLTSim is the contrastive-learning baseline [43]: a GRU encoder trained
// with NT-Xent on two stochastic augmentations of each trajectory — point
// dropping and point distortion with rates drawn from {0, 0.2, 0.4, 0.6}
// (Section V-A5). Like t2vec, it is distance-agnostic.
type CLTSim struct {
	core.NetEncoder
	stats geo.Stats
	cell  *nn.GRUCell

	// Rates are sampled per view from this set, matching the paper.
	Rates []float64
	// Temperature of the NT-Xent loss.
	Tau float64
}

// NewCLTSim builds the contrastive baseline.
func NewCLTSim(cfg core.Config, space []geo.Trajectory) *CLTSim {
	c := &CLTSim{
		stats: geo.ComputeStats(space),
		Rates: []float64{0, 0.2, 0.4, 0.6},
		Tau:   0.5,
	}
	base, rng := newBase("CL-TSim", cfg, c)
	c.NetEncoder = base
	c.cell = nn.NewGRUCell(2, cfg.Dim, rng)
	return c
}

// Params returns the GRU weights.
func (c *CLTSim) Params() []*nn.Tensor { return c.cell.Params() }

// Forward returns the final GRU state over normalized points (see
// core.Net).
func (c *CLTSim) Forward(s *nn.Scratch, tr geo.Trajectory) *nn.Tensor {
	p := prepTraj(tr, c.Cfg.MaxLen)
	return c.cell.Final(pointFeatures(s, p, c.stats))
}

// augment produces one stochastic view: drop each interior point with the
// sampled dropping rate and distort survivors with Gaussian noise scaled by
// the distortion rate.
func (c *CLTSim) augment(tr geo.Trajectory, rng *rand.Rand) geo.Trajectory {
	drop := c.Rates[rng.Intn(len(c.Rates))]
	distort := c.Rates[rng.Intn(len(c.Rates))]
	scale := distort * 0.1 * (c.stats.StdX + c.stats.StdY) / 2
	out := make(geo.Trajectory, 0, len(tr))
	for i, p := range tr {
		// Keep endpoints so views stay comparable.
		if i != 0 && i != len(tr)-1 && rng.Float64() < drop {
			continue
		}
		out = append(out, geo.Point{
			X: p.X + rng.NormFloat64()*scale,
			Y: p.Y + rng.NormFloat64()*scale,
		})
	}
	if len(out) < 2 {
		return tr
	}
	return out
}

// normalizeRows L2-normalizes each row (for cosine similarity).
func normalizeRows(x *nn.Tensor) *nn.Tensor {
	norm := nn.Sqrt(nn.RowSums(nn.Square(x)), 1e-12)
	return nn.DivByColumn(x, norm)
}

// ntXentBatch computes the NT-Xent loss over a batch: views 2i and 2i+1
// are positives; all other views in the batch are negatives.
func (c *CLTSim) ntXentBatch(views []*nn.Tensor) *nn.Tensor {
	z := normalizeRows(nn.ConcatRows(views...))
	// Similarity matrix scaled by temperature.
	sims := nn.Scale(nn.MatMul(z, nn.Transpose(z)), 1/c.Tau)
	n := len(views)
	terms := make([]*nn.Tensor, n)
	for i := range terms {
		j := i ^ 1 // the paired view
		row := nn.SliceRows(sims, i, i+1)
		// Mask self-similarity by subtracting a large constant at position i.
		mask := nn.New(1, n)
		mask.Data[i] = -1e9
		// −s_ij + log Σ_k exp(s_ik)
		lse := nn.Log(nn.SumAll(nn.Exp(nn.Add(row, mask))), 1e-12)
		terms[i] = nn.Sub(lse, nn.SliceCols(row, j, j+1))
	}
	return nn.MeanAll(nn.ConcatRows(terms...))
}

// BatchLoss is CL-TSim's objective, which the training loop runs in place
// of the supervised losses: NT-Xent over two augmented views, drawn from
// rng, of every trajectory in the batch. A batch of one has no negatives
// and is skipped.
func (c *CLTSim) BatchLoss(corpus []geo.Trajectory, batch []int, rng *rand.Rand) *nn.Tensor {
	if len(batch) < 2 {
		return nil
	}
	views := make([]*nn.Tensor, 0, 2*len(batch))
	for _, i := range batch {
		for v := 0; v < 2; v++ {
			views = append(views, c.Forward(nil, c.augment(corpus[i], rng)))
		}
	}
	return c.ntXentBatch(views)
}
