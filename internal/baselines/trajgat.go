package baselines

import (
	"traj2hash/internal/core"
	"traj2hash/internal/geo"
	"traj2hash/internal/nn"
)

// TrajGAT is the graph-attention baseline [24]: each point is mapped to its
// PR-quadtree leaf, the point feature is enriched with the summed
// embeddings of the root-to-leaf path (the quadtree structural encoding),
// and a transformer over the enriched sequence with mean-pooling read-out
// produces the embedding. Trained with the same WMSE objective.
type TrajGAT struct {
	core.NetEncoder
	stats  geo.Stats
	tree   *QuadTree
	nodes  *nn.Embedding // quadtree node embeddings
	mlpE   *nn.Linear
	blocks []*nn.EncoderBlock
}

// NewTrajGAT builds the quadtree over the study space and the encoder. Per
// Section V-A5 it matches Traj2Hash's head count and depth (Config.Heads,
// Config.Blocks).
func NewTrajGAT(cfg core.Config, space []geo.Trajectory) *TrajGAT {
	t := &TrajGAT{stats: geo.ComputeStats(space), tree: NewQuadTree(space, 64, 8)}
	base, rng := newBase("TrajGAT", cfg, t)
	t.NetEncoder = base
	t.nodes = nn.NewEmbedding(t.tree.NumNodes(), cfg.Dim, rng)
	t.mlpE = nn.NewLinear(2, cfg.Dim, rng)
	for i := 0; i < cfg.Blocks; i++ {
		t.blocks = append(t.blocks, nn.NewEncoderBlock(cfg.Dim, cfg.Heads, cfg.Dim, true, rng))
	}
	return t
}

// Params returns the node embeddings, the point embedding and the blocks.
func (t *TrajGAT) Params() []*nn.Tensor {
	ps := t.nodes.Params()
	ps = append(ps, t.mlpE.Params()...)
	for _, b := range t.blocks {
		ps = append(ps, b.Params()...)
	}
	return ps
}

// Forward encodes a trajectory (see core.Net).
func (t *TrajGAT) Forward(s *nn.Scratch, tr geo.Trajectory) *nn.Tensor {
	p := prepTraj(tr, t.Cfg.MaxLen)
	feat := t.mlpE.Forward(pointFeatures(s, p, t.stats))
	// Structural encoding: sum of node embeddings along each point's
	// quadtree path, appended as rows then added to the point features.
	nodes := s.Input(t.nodes.Table)
	rows := make([]*nn.Tensor, len(p))
	for i, pt := range p {
		// Mean over the path keeps the scale independent of depth.
		rows[i] = nn.MeanRows(nn.Gather(nodes, t.tree.Path(pt)))
	}
	x := nn.Add(feat, nn.ConcatRows(rows...))
	for _, b := range t.blocks {
		x = b.Forward(x)
	}
	return nn.MeanRows(x) // TrajGAT's mean-pooling read-out
}
