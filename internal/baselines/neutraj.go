package baselines

import (
	"traj2hash/internal/core"
	"traj2hash/internal/geo"
	"traj2hash/internal/grid"
	"traj2hash/internal/nn"
)

// NeuTraj is the seed-guided neural metric learning baseline [22]: a GRU
// over normalized GPS coordinates with a spatial attention memory (SAM)
// that lets the recurrent state read what previous trajectories wrote into
// the grid cells it passes through. The final hidden state is the
// embedding (the read-out that, per Section V-B, implicitly realizes the
// lower bound for DTW/Fréchet).
type NeuTraj struct {
	core.NetEncoder
	stats geo.Stats
	cell  *nn.GRUCell

	// SAM (nil without it): one memory row per coarse grid cell, written
	// by exponential moving average rather than by gradient, and the read
	// gate.
	g      *grid.Grid
	memory *nn.Tensor
	memW   *nn.Linear
}

// NewNeuTraj builds the full NeuTraj with SAM enabled.
func NewNeuTraj(cfg core.Config, space []geo.Trajectory) (*NeuTraj, error) {
	return newNeuTraj(cfg, space, true, "NeuTraj")
}

// NewNTNoSAM builds the NT-No-SAM ablation: the same GRU metric learner
// without the spatial attention memory.
func NewNTNoSAM(cfg core.Config, space []geo.Trajectory) (*NeuTraj, error) {
	return newNeuTraj(cfg, space, false, "NT-No-SAM")
}

func newNeuTraj(cfg core.Config, space []geo.Trajectory, useSAM bool, name string) (*NeuTraj, error) {
	n := &NeuTraj{stats: geo.ComputeStats(space)}
	base, rng := newBase(name, cfg, n)
	n.NetEncoder = base
	n.cell = nn.NewGRUCell(2, cfg.Dim, rng)
	if useSAM {
		// SAM memory over a coarse grid (NeuTraj uses the spatial grid to
		// address memory; a coarse cell keeps the table small).
		g, err := grid.FromTrajectories(space, 500)
		if err != nil {
			return nil, err
		}
		n.g = g
		n.memory = nn.New(g.Cells(), cfg.Dim)
		n.memW = nn.NewLinear(cfg.Dim, cfg.Dim, rng)
		// Start the read gate nearly closed (σ(−4) ≈ 0.018) so SAM begins
		// as a no-op and only contributes where training opens it — the
		// memory is an auxiliary signal, not a replacement for the state.
		for i := range n.memW.B.Data {
			n.memW.B.Data[i] = -4
		}
	}
	return n, nil
}

// Params returns the GRU weights and, with SAM, the read gate and the
// memory. The memory carries no gradient — the optimizer skips it — but it
// is training state every later Forward reads, so it travels with the
// weights through model selection, rollback and checkpoints.
func (n *NeuTraj) Params() []*nn.Tensor {
	ps := n.cell.Params()
	if n.memory != nil {
		ps = append(append(ps, n.memW.Params()...), n.memory)
	}
	return ps
}

// memRow is the memory row of the coarse cell p falls in (aliased, not
// copied).
func (n *NeuTraj) memRow(p geo.Point) []float64 {
	id, d := n.g.ID(p), n.memory.Cols
	return n.memory.Data[id*d : (id+1)*d]
}

// SerialForward declares to the training loop that a taped Forward
// writes the SAM memory later forwards read, so a step's forwards must
// run one at a time, in the order its loss uses them.
func (n *NeuTraj) SerialForward() {}

// Forward runs the GRU over the trajectory; with SAM, each step's hidden
// state is blended with the memory of the current cell (gated read). A
// taped pass — a training pass — then writes the states it produced back
// with an exponential moving average; a tape-free pass never writes, so
// served embeddings are deterministic and order-free. Writes land after
// the pass's last read: a trajectory reads what previous trajectories
// wrote, not itself, which is what keeps the two modes bit-identical.
// Memory writes carry no gradient — they are a cross-trajectory cache, as
// in the original SAM design.
func (n *NeuTraj) Forward(s *nn.Scratch, t geo.Trajectory) *nn.Tensor {
	p := prepTraj(t, n.Cfg.MaxLen)
	x := pointFeatures(s, p, n.stats)
	h := s.New(1, n.cell.Hidden)
	var states []*nn.Tensor // per step, kept only for the taped write-back
	for i := range p {
		mark := s.Mark()
		h = n.cell.Step(nn.SliceRows(x, i, i+1), h)
		if n.memory != nil {
			// The read is a copy: a constant of this pass, whatever later
			// writes do to the row before Backward runs.
			mem := s.New(1, n.cell.Hidden)
			copy(mem.Data, n.memRow(p[i]))
			// Gated read: h ← h + σ(W·h) ⊙ mem.
			h = nn.Add(h, nn.Mul(nn.Sigmoid(n.memW.Forward(h)), mem))
			if s == nil {
				states = append(states, h)
			}
		}
		h = mark.Keep(h)
	}
	for i, st := range states {
		mem := n.memRow(p[i])
		for k, v := range st.Data {
			mem[k] = 0.9*mem[k] + 0.1*v
		}
	}
	return h
}
