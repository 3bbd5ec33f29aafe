package core

import (
	"fmt"
	"math/rand"
	"time"

	"traj2hash/internal/geo"
	"traj2hash/internal/grid"
	"traj2hash/internal/nn"
)

// cellEmbedder produces (frozen) embeddings for grid-cell sequences; both
// the decomposed representation and node2vec satisfy it (Figure 7).
type cellEmbedder interface {
	EmbedCells(cells []int) *nn.Tensor
}

// Model is the Traj2Hash network of Figure 2: trajectory augmentation, a
// light-weight grid representation encoder, an attention-based GPS
// trajectory encoder, and a hash layer producing embeddings in Euclidean
// space (h_f, Equation 15) and codes in Hamming space (z, Equation 16).
// The Encoder and Trainable surface is the embedded NetEncoder's; Model
// supplies the parameters and the forward pass.
type Model struct {
	NetEncoder

	stats geo.Stats // Gaussian normalization of Equation 10

	// Grid channel (Section IV-C).
	fineGrid *grid.Grid
	gridEmb  cellEmbedder // frozen after pre-training
	gridMLP  *nn.MLP      // MLP_g, two layers (Equation 9)

	// GridPretrainTime is the wall-clock cost of grid embedding
	// pre-training — the efficiency axis of the Figure 7 study.
	GridPretrainTime time.Duration

	// GPS channel (Section IV-D).
	mlpE   *nn.Linear // MLP_e, one layer (Equation 10)
	blocks []*nn.EncoderBlock
	cls    *nn.Tensor // learned CLS token (CLS read-out only)
	pe     *nn.PositionalEncoding

	// Hash layer (Section IV-E).
	fuse *nn.Linear // MLP_f (Equation 14)
	proj *nn.Linear // W_p (Equation 15)
}

// New builds a Traj2Hash model. The study space (grid extent and
// normalization statistics) is fitted on the given trajectories, which
// should cover all data the model will see (the paper fits grids over the
// whole study area).
func New(cfg Config, space []geo.Trajectory) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(space) == 0 {
		return nil, fmt.Errorf("core: no trajectories to fit the study space")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	m := &Model{stats: geo.ComputeStats(space)}
	m.NetEncoder = NewNetEncoder(AttentionKind, cfg, rng, m)

	fuseIn := cfg.Dim
	if cfg.UseGrids {
		fg, err := grid.FromTrajectories(space, cfg.GridCellSize)
		if err != nil {
			return nil, fmt.Errorf("core: fine grid: %w", err)
		}
		m.fineGrid = fg
		start := time.Now()
		switch cfg.GridRep {
		case Node2VecRep:
			n2v := grid.NewNode2Vec(fg, cfg.Dim, rng)
			ncfg := grid.DefaultNode2VecConfig(cfg.Dim)
			ncfg.Epochs = 1
			ncfg.Seed = cfg.Seed
			// Bound the walk corpus on large grids: node2vec's cost is the
			// very point of the Figure 7 comparison, but training must
			// terminate. The paper parameters stay for modest grids.
			if fg.Cells() > 20000 {
				ncfg.NumWalks = 2
				ncfg.WalkLen = 20
				ncfg.Window = 5
			}
			n2v.Train(ncfg)
			m.gridEmb = n2v
		default:
			dec := grid.NewDecomposed(fg, cfg.Dim, rng)
			pcfg := grid.DefaultPretrainConfig(cfg.Dim)
			pcfg.Epochs = cfg.GridPreEpochs
			pcfg.Seed = cfg.Seed
			dec.Pretrain(pcfg)
			m.gridEmb = dec
		}
		m.GridPretrainTime = time.Since(start)
		m.gridMLP = nn.NewMLP(rng, cfg.Dim, cfg.Dim, cfg.Dim)
		fuseIn = 2 * cfg.Dim
	}

	m.mlpE = nn.NewLinear(2, cfg.Dim, rng)
	m.blocks = make([]*nn.EncoderBlock, cfg.Blocks)
	for i := range m.blocks {
		m.blocks[i] = nn.NewEncoderBlock(cfg.Dim, cfg.Heads, cfg.Dim, true, rng)
	}
	if cfg.Readout == CLS {
		m.cls = nn.XavierParam(1, cfg.Dim, rng)
	}
	m.pe = nn.NewPositionalEncoding(cfg.MaxLen+1, cfg.Dim)

	m.fuse = nn.NewLinear(fuseIn, cfg.Dim, rng)
	half := cfg.HashBits / 2
	if !cfg.UseRevAug {
		// Without the reverse augmentation the projection alone must fill
		// the code, so it maps to the full width.
		half = cfg.HashBits
	}
	m.proj = nn.NewLinear(cfg.Dim, half, rng)
	return m, nil
}

// Params returns all trainable parameters (the frozen grid embeddings are
// excluded by design, Section IV-C).
func (m *Model) Params() []*nn.Tensor {
	var ps []*nn.Tensor
	if m.gridMLP != nil {
		ps = append(ps, m.gridMLP.Params()...)
	}
	ps = append(ps, m.mlpE.Params()...)
	for _, b := range m.blocks {
		ps = append(ps, b.Params()...)
	}
	if m.cls != nil {
		ps = append(ps, m.cls)
	}
	ps = append(ps, m.fuse.Params()...)
	ps = append(ps, m.proj.Params()...)
	return ps
}

// prep resamples a trajectory to at most MaxLen points for encoding. The
// exact distance functions always run on the raw trajectory; only the
// neural encoder sees the bounded version.
func (m *Model) prep(t geo.Trajectory) geo.Trajectory {
	if len(t) > m.Cfg.MaxLen {
		return t.Resample(m.Cfg.MaxLen)
	}
	return t
}

// encodeDirection encodes one direction (forward or reversed) of a prepared
// trajectory into the fused representation h of Equation 14 (1×Dim).
func (m *Model) encodeDirection(s *nn.Scratch, t geo.Trajectory) *nn.Tensor {
	mark := s.Mark()
	hl := m.encodeGPS(s, t)
	if !m.Cfg.UseGrids {
		return mark.Keep(m.fuse.Forward(hl))
	}
	hg := m.encodeGrid(s, t)
	return mark.Keep(m.fuse.Forward(nn.ConcatCols(hl, hg)))
}

// encodeGPS is the attention-based trajectory encoder of Section IV-D.
func (m *Model) encodeGPS(s *nn.Scratch, t geo.Trajectory) *nn.Tensor {
	mark := s.Mark()
	raw := s.New(len(t), 2)
	for i, p := range t {
		q := m.stats.Normalize(p)
		raw.Set(i, 0, q.X)
		raw.Set(i, 1, q.Y)
	}
	x := m.mlpE.Forward(raw) // Equation 10
	x = m.pe.Add(x)
	if m.Cfg.Readout == CLS {
		x = nn.ConcatRows(m.cls, x)
	}
	x = mark.Keep(x)
	for _, b := range m.blocks {
		x = b.Forward(x) // Equations 11–12
	}
	switch m.Cfg.Readout {
	case Mean:
		return mark.Keep(nn.MeanRows(x))
	default: // CLS, and LowerBound (Equation 13): row 0
		return mark.Keep(nn.SliceRows(x, 0, 1))
	}
}

// encodeGrid is the light-weight grid representation encoder of
// Section IV-C: frozen decomposed embeddings + positional encoding →
// MLP_g → mean pooling (Equation 9).
func (m *Model) encodeGrid(s *nn.Scratch, t geo.Trajectory) *nn.Tensor {
	mark := s.Mark()
	cells := m.fineGrid.GridTrajectory(t)
	x := s.Input(m.gridEmb.EmbedCells(cells))
	x = m.pe.Add(x)
	return mark.Keep(nn.MeanRows(m.gridMLP.Forward(x)))
}

// Forward encodes a raw trajectory into the final representation h_f of
// Equation 15 (1×HashBits). It is the model's only forward pass (see Net):
// taped under a nil Scratch, tape-free on one.
func (m *Model) Forward(s *nn.Scratch, t geo.Trajectory) *nn.Tensor {
	p := m.prep(t)
	h := m.encodeDirection(s, p)
	if !m.Cfg.UseRevAug {
		return m.proj.Forward(h)
	}
	hr := m.encodeDirection(s, p.Reverse())
	return nn.ConcatCols(m.proj.Forward(h), m.proj.Forward(hr))
}
