package baselines

import (
	"traj2hash/internal/core"
	"traj2hash/internal/geo"
	"traj2hash/internal/nn"
)

// Transformer is the vanilla self-attention baseline [46]: point features →
// positional encoding → stacked attention blocks → CLS read-out, trained
// with the WMSE metric-learning objective. Per Section V-A5 it uses the
// same head count and depth as Traj2Hash.
type Transformer struct {
	core.NetEncoder
	stats  geo.Stats
	mlpE   *nn.Linear
	blocks []*nn.EncoderBlock
	cls    *nn.Tensor
	pe     *nn.PositionalEncoding
}

// NewTransformer builds the baseline with Traj2Hash's own depth and head
// count (Config.Blocks, Config.Heads).
func NewTransformer(cfg core.Config, space []geo.Trajectory) *Transformer {
	t := &Transformer{stats: geo.ComputeStats(space)}
	base, rng := newBase("Transformer", cfg, t)
	t.NetEncoder = base
	t.mlpE = nn.NewLinear(2, cfg.Dim, rng)
	t.cls = nn.XavierParam(1, cfg.Dim, rng)
	t.pe = nn.NewPositionalEncoding(cfg.MaxLen+1, cfg.Dim)
	for i := 0; i < cfg.Blocks; i++ {
		t.blocks = append(t.blocks, nn.NewEncoderBlock(cfg.Dim, cfg.Heads, cfg.Dim, true, rng))
	}
	return t
}

// Params returns the CLS token, the point embedding and the blocks.
func (t *Transformer) Params() []*nn.Tensor {
	ps := []*nn.Tensor{t.cls}
	ps = append(ps, t.mlpE.Params()...)
	for _, b := range t.blocks {
		ps = append(ps, b.Params()...)
	}
	return ps
}

// Forward encodes a trajectory (see core.Net).
func (t *Transformer) Forward(s *nn.Scratch, tr geo.Trajectory) *nn.Tensor {
	p := prepTraj(tr, t.Cfg.MaxLen)
	x := t.mlpE.Forward(pointFeatures(s, p, t.stats))
	x = t.pe.Add(x)
	x = nn.ConcatRows(t.cls, x)
	for _, b := range t.blocks {
		x = b.Forward(x)
	}
	return nn.SliceRows(x, 0, 1) // CLS read-out
}
