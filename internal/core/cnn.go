package core

import (
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"math/rand"

	"traj2hash/internal/geo"
	"traj2hash/internal/nn"
)

func init() {
	RegisterEncoder(CNNKind,
		func(cfg Config, space []geo.Trajectory) (Encoder, error) { return NewCNN(cfg, space) },
		func(r io.Reader) (Encoder, error) { return loadCNN(r) })
}

// CNN raster geometry: the study-space bounding box is rasterized onto a
// fixed cnnNX×cnnNY field with cnnChans channels per cell. The field is
// intentionally coarse — the encoder trades the attention model's
// sequence fidelity for a fixed-cost forward pass that is independent of
// trajectory length.
const (
	cnnNX    = 12 // raster width in cells
	cnnNY    = 12 // raster height in cells
	cnnChans = 8  // hidden channels of both conv layers
)

// CNNEncoder hashes trajectories through a small convolutional network
// over grid rasterizations: a trajectory is painted onto a fixed
// cnnNX×cnnNY raster of the study space (channel 0: visit density,
// channel 1: mean normalized progress of the visits, which restores the
// direction-of-travel signal a pure occupancy image loses), and two
// same-padded 3×3 convolutions (internal/nn.Conv3x3) with global mean
// pooling and a two-layer head map the image to the HashBits-wide
// embedding h_f. Codes follow the usual sign convention (Equation 16).
//
// CNNEncoder implements Trainable through the NetEncoder it embeds: it is
// fitted by the same training loop (trainLoop) as the paper's attention
// model, with the same objective, β schedule, checkpointing, and
// divergence guard. Of its Cfg, HashBits, Seed, and the training
// hyper-parameters are consulted.
type CNNEncoder struct {
	NetEncoder

	// Study-space bounding box the raster is anchored to.
	minX, minY, maxX, maxY float64

	conv1 *nn.Conv3x3
	conv2 *nn.Conv3x3
	head1 *nn.Linear // cnnChans → cnnChans
	head2 *nn.Linear // cnnChans → HashBits
}

// NewCNN builds the convolutional encoder with its raster fitted to the
// bounding box of the given study space.
func NewCNN(cfg Config, space []geo.Trajectory) (*CNNEncoder, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	minX, minY, maxX, maxY := math.Inf(1), math.Inf(1), math.Inf(-1), math.Inf(-1)
	for _, t := range space {
		for _, p := range t {
			minX = math.Min(minX, p.X)
			minY = math.Min(minY, p.Y)
			maxX = math.Max(maxX, p.X)
			maxY = math.Max(maxY, p.Y)
		}
	}
	if minX > maxX {
		return nil, fmt.Errorf("core: cnn encoder needs a non-empty study space")
	}
	return newCNNAt(cfg, minX, minY, maxX, maxY), nil
}

// newCNNAt builds the network for a known bounding box; parameter
// initialization is deterministic from Config.Seed.
func newCNNAt(cfg Config, minX, minY, maxX, maxY float64) *CNNEncoder {
	rng := rand.New(rand.NewSource(cfg.Seed))
	c := &CNNEncoder{
		minX: minX, minY: minY, maxX: maxX, maxY: maxY,
		conv1: nn.NewConv3x3(cnnNX, cnnNY, 2, cnnChans, rng),
		conv2: nn.NewConv3x3(cnnNX, cnnNY, cnnChans, cnnChans, rng),
		head1: nn.NewLinear(cnnChans, cnnChans, rng),
		head2: nn.NewLinear(cnnChans, cfg.HashBits, rng),
	}
	c.NetEncoder = NewNetEncoder(CNNKind, cfg, rng, c)
	return c
}

// raster paints a trajectory onto the study-space field, written into
// data (zeroed, two values per cell): channel 0 is the visit density
// (visits per cell, normalized by trajectory length) and channel 1 the
// mean normalized progress (0 at the start, 1 at the end) of the points
// that fell in the cell. Points outside the bounding box clamp to the
// border cells.
func (c *CNNEncoder) raster(t geo.Trajectory, data []float64) {
	if len(t) == 0 {
		return
	}
	spanX := c.maxX - c.minX
	spanY := c.maxY - c.minY
	denom := 1.0
	if len(t) > 1 {
		denom = float64(len(t) - 1)
	}
	// First pass: accumulate per-cell visit counts and progress sums in
	// place; the second pass normalizes them.
	for i, p := range t {
		x := 0
		if spanX > 0 {
			x = clampCell(int((p.X-c.minX)/spanX*float64(cnnNX)), cnnNX)
		}
		y := 0
		if spanY > 0 {
			y = clampCell(int((p.Y-c.minY)/spanY*float64(cnnNY)), cnnNY)
		}
		id := y*cnnNX + x
		data[id*2]++
		data[id*2+1] += float64(i) / denom
	}
	n := float64(len(t))
	for id := 0; id < cnnNX*cnnNY; id++ {
		if count := data[id*2]; count > 0 {
			data[id*2] = count / n
			data[id*2+1] /= count
		}
	}
}

// clampCell clamps a raster coordinate into [0, n).
func clampCell(v, n int) int {
	if v < 0 {
		return 0
	}
	if v >= n {
		return n - 1
	}
	return v
}

// Params returns the trainable parameters of both conv layers and the
// head.
func (c *CNNEncoder) Params() []*nn.Tensor {
	var ps []*nn.Tensor
	ps = append(ps, c.conv1.Params()...)
	ps = append(ps, c.conv2.Params()...)
	ps = append(ps, c.head1.Params()...)
	ps = append(ps, c.head2.Params()...)
	return ps
}

// Forward encodes a raw trajectory into the representation h_f
// (1×HashBits): taped under a nil Scratch, tape-free on one (see Net).
func (c *CNNEncoder) Forward(s *nn.Scratch, t geo.Trajectory) *nn.Tensor {
	x := s.New(cnnNX*cnnNY, 2)
	c.raster(t, x.Data)
	h := nn.ReLU(c.conv1.Forward(x))
	h = nn.ReLU(c.conv2.Forward(h))
	h = nn.MeanRows(h)
	h = nn.ReLU(c.head1.Forward(h))
	return c.head2.Forward(h)
}

// cnnBlob is the gob wire format of a (possibly trained) CNN encoder.
type cnnBlob struct {
	Cfg                    Config
	MinX, MinY, MaxX, MaxY float64
	Beta                   float64
	Groups                 [][]float64
}

// Save writes the encoder (raster anchor and parameters) to w.
func (c *CNNEncoder) Save(w io.Writer) error {
	blob := cnnBlob{
		Cfg:  c.Cfg,
		MinX: c.minX, MinY: c.minY, MaxX: c.maxX, MaxY: c.maxY,
		Beta:   c.beta,
		Groups: snapshotParams(c.Params()),
	}
	if err := gob.NewEncoder(w).Encode(blob); err != nil {
		return fmt.Errorf("core: cnn save: %w", err)
	}
	return nil
}

// loadCNN reads an encoder written by Save.
func loadCNN(r io.Reader) (*CNNEncoder, error) {
	var blob cnnBlob
	if err := gob.NewDecoder(r).Decode(&blob); err != nil {
		return nil, fmt.Errorf("core: cnn load: %w", err)
	}
	if err := blob.Cfg.Validate(); err != nil {
		return nil, fmt.Errorf("core: cnn load: %w", err)
	}
	c := newCNNAt(blob.Cfg, blob.MinX, blob.MinY, blob.MaxX, blob.MaxY)
	c.beta = blob.Beta
	if err := c.SetParams(blob.Groups); err != nil {
		return nil, fmt.Errorf("core: cnn load: %w", err)
	}
	return c, nil
}
