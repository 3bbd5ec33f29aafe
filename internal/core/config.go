// Package core implements Traj2Hash (Section IV): a two-channel trajectory
// encoder — a light-weight grid representation encoder and an
// attention-based GPS encoder with a lower-bound-induced read-out — a
// reverse-augmentation hash layer, and the combined WMSE + ranking-based
// hashing training objective with fast triplet generation.
package core

import (
	"fmt"
)

// Readout selects the read-out layer of the attention encoder
// (Section IV-D and the Figure 4 study).
type Readout int

const (
	// LowerBound uses the first point's embedding (Equation 13), exploiting
	// the Lemma 1 lower bound of DTW and the Fréchet distance.
	LowerBound Readout = iota
	// Mean uses mean pooling over all positions (the TrajGAT-style read-out).
	Mean
	// CLS prepends a learned token and reads its embedding (BERT-style).
	CLS
)

// String names the read-out for reports.
func (r Readout) String() string {
	switch r {
	case LowerBound:
		return "LowerBound"
	case Mean:
		return "Mean"
	case CLS:
		return "CLS"
	default:
		return fmt.Sprintf("Readout(%d)", int(r))
	}
}

// GridRep selects how grid-cell embeddings are produced (the Figure 7
// grid-representation study).
type GridRep int

const (
	// DecomposedNCE is the paper's light-weight decomposed representation
	// with NCE pre-training (Section IV-C).
	DecomposedNCE GridRep = iota
	// Node2VecRep learns one independent embedding per cell with node2vec
	// over the grid adjacency graph — the Figure 7 comparator.
	Node2VecRep
)

// String names the representation for reports.
func (g GridRep) String() string {
	switch g {
	case DecomposedNCE:
		return "Decomposed"
	case Node2VecRep:
		return "Node2vec"
	default:
		return fmt.Sprintf("GridRep(%d)", int(g))
	}
}

// Config collects the model and training hyper-parameters
// (paper defaults: Section V-A5).
type Config struct {
	// Architecture.
	Dim      int // latent dimension d (paper: 64)
	HashBits int // code length d_h (paper: 64); must be even
	Blocks   int // attention blocks m (paper: 2)
	Heads    int // attention heads (paper: 4)
	MaxLen   int // trajectories longer than this are resampled for encoding

	// Channels and properties (the Table III ablation switches).
	UseGrids    bool    // light-weight grid representation channel
	UseRevAug   bool    // reverse augmentation (Lemma 3)
	UseTriplets bool    // fast triplet generation + L_t
	Readout     Readout // read-out layer variant

	// Grid channels.
	GridCellSize    float64 // fine grid for the encoder (paper: 50 m)
	TripletCellSize float64 // coarse grid for triplet clustering (paper: 500 m)
	GridPreEpochs   int     // NCE pre-training epochs
	GridRep         GridRep // grid embedding representation (Figure 7)

	// Objective.
	Alpha float64 // ranking margin α (paper: 5)
	Gamma float64 // balance weight γ (paper: 6)
	Theta float64 // similarity smoothing θ; 0 = auto (1/mean distance)
	M     int     // samples per anchor in WMSE (paper: 10); must be even

	// Optimization.
	Epochs       int     // maximum training epochs (paper: 100)
	BatchSize    int     // WMSE anchors per batch (paper: 20)
	TripletBatch int     // triplets per batch (paper: 500)
	NumTriplets  int     // triplets to generate from the corpus
	LR           float64 // Adam learning rate (paper: 1e-3)
	BetaStart    float64 // tanh(β·) relaxation start (HashNet: 1)
	BetaGrowth   float64 // multiplicative β growth per epoch
	ClipNorm     float64 // gradient clipping threshold (0 disables)
	Seed         int64
}

// DefaultConfig returns the paper's hyper-parameters at a dimension
// suitable for CPU training. Pass dim=64 for the paper's exact setting.
func DefaultConfig(dim int) Config {
	return Config{
		Dim:             dim,
		HashBits:        dim,
		Blocks:          2,
		Heads:           4,
		MaxLen:          24,
		UseGrids:        true,
		UseRevAug:       true,
		UseTriplets:     true,
		Readout:         LowerBound,
		GridCellSize:    50,
		TripletCellSize: 500,
		GridPreEpochs:   3,
		Alpha:           5,
		Gamma:           6,
		Theta:           0,
		M:               10,
		Epochs:          20,
		BatchSize:       20,
		TripletBatch:    64,
		NumTriplets:     2000,
		LR:              1e-3,
		BetaStart:       1,
		BetaGrowth:      1.15,
		ClipNorm:        5,
		Seed:            1,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Dim <= 0 {
		return fmt.Errorf("core: Dim must be positive, got %d", c.Dim)
	}
	if c.HashBits <= 0 || c.HashBits%2 != 0 {
		return fmt.Errorf("core: HashBits must be positive and even, got %d", c.HashBits)
	}
	if c.Heads < 1 || c.Dim%c.Heads != 0 {
		return fmt.Errorf("core: Heads must be positive and divide Dim %d, got %d", c.Dim, c.Heads)
	}
	if c.Blocks < 0 {
		return fmt.Errorf("core: Blocks must be non-negative, got %d", c.Blocks)
	}
	if c.M < 2 || c.M%2 != 0 {
		return fmt.Errorf("core: M must be an even number ≥ 2, got %d", c.M)
	}
	if c.MaxLen < 2 {
		return fmt.Errorf("core: MaxLen must be ≥ 2, got %d", c.MaxLen)
	}
	if !(c.GridCellSize > 0) || !(c.TripletCellSize > 0) { // also catches NaN
		return fmt.Errorf("core: cell sizes must be positive")
	}
	return nil
}
