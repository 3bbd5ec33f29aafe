package baselines

import (
	"math/rand"

	"traj2hash/internal/core"
	"traj2hash/internal/geo"
	"traj2hash/internal/grid"
	"traj2hash/internal/nn"
)

// T2Vec is the sequential autoencoder baseline [42]: trajectories are
// tokenized into grid cells, a GRU encoder compresses the token sequence,
// and a GRU decoder reconstructs it; the encoder's final state is the
// trajectory embedding. The training is distance-agnostic (it never sees
// the target distance function), which is why it ranks last in Table I.
type T2Vec struct {
	core.NetEncoder
	g    *grid.Grid
	emb  *nn.Embedding // trainable cell embeddings
	enc  *nn.GRUCell
	dec  *nn.GRUCell
	outW *nn.Linear // decoder hidden → predicted cell embedding
}

// NewT2Vec builds the autoencoder over a cell grid of the given size
// (coarser than the 50 m encoder grid to keep the vocabulary small — t2vec
// itself uses a learned vocabulary of hot cells).
func NewT2Vec(cfg core.Config, space []geo.Trajectory, cellSize float64) (*T2Vec, error) {
	g, err := grid.FromTrajectories(space, cellSize)
	if err != nil {
		return nil, err
	}
	t := &T2Vec{g: g}
	base, rng := newBase("t2vec", cfg, t)
	t.NetEncoder = base
	t.emb = nn.NewEmbedding(g.Cells(), cfg.Dim, rng)
	t.enc = nn.NewGRUCell(cfg.Dim, cfg.Dim, rng)
	t.dec = nn.NewGRUCell(cfg.Dim, cfg.Dim, rng)
	t.outW = nn.NewLinear(cfg.Dim, cfg.Dim, rng)
	return t, nil
}

// Params returns the cell embeddings, both GRUs and the output layer.
func (t *T2Vec) Params() []*nn.Tensor {
	ps := t.emb.Params()
	ps = append(ps, t.enc.Params()...)
	ps = append(ps, t.dec.Params()...)
	ps = append(ps, t.outW.Params()...)
	return ps
}

// cells embeds a trajectory's (deduplicated) cell token sequence, one row
// per token.
func (t *T2Vec) cells(s *nn.Scratch, tr geo.Trajectory) *nn.Tensor {
	toks := t.g.GridTrajectory(prepTraj(tr, t.Cfg.MaxLen))
	return nn.Gather(s.Input(t.emb.Table), toks)
}

// Forward returns the encoder GRU's final state (see core.Net).
func (t *T2Vec) Forward(s *nn.Scratch, tr geo.Trajectory) *nn.Tensor {
	return t.enc.Final(t.cells(s, tr))
}

// reconstructionLoss runs encode→decode with teacher forcing. At each step
// the decoder predicts the next cell's embedding; a margin loss pulls the
// prediction toward the true cell and pushes it from a random noise cell
// (negative sampling keeps the embedding table from collapsing).
func (t *T2Vec) reconstructionLoss(tr geo.Trajectory, rng *rand.Rand) *nn.Tensor {
	x := t.cells(nil, tr)
	state := t.enc.Final(x)
	terms := make([]*nn.Tensor, x.Rows)
	prev := nn.New(1, t.Cfg.Dim) // start-of-sequence input
	for i := range terms {
		state = t.dec.Step(prev, state)
		pred := t.outW.Forward(state)
		target := nn.SliceRows(x, i, i+1)
		noise := t.emb.Forward([]int{rng.Intn(t.g.Cells())})
		// Hinge margin: score(pred, target) should beat score(pred, noise).
		margin := nn.AddScalar(nn.Sub(nn.Dot(pred, noise), nn.Dot(pred, target)), 1)
		terms[i] = nn.HingeScalar(margin)
		prev = target
	}
	return nn.MeanAll(nn.ConcatRows(terms...))
}

// BatchLoss is t2vec's objective, which the training loop runs in place
// of the supervised losses: the mean reconstruction loss of the batch,
// noise cells drawn from rng.
func (t *T2Vec) BatchLoss(corpus []geo.Trajectory, batch []int, rng *rand.Rand) *nn.Tensor {
	terms := make([]*nn.Tensor, len(batch))
	for k, i := range batch {
		terms[k] = t.reconstructionLoss(corpus[i], rng)
	}
	return nn.MeanAll(nn.ConcatRows(terms...))
}
