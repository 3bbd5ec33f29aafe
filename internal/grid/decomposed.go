package grid

import (
	"math"
	"math/rand"

	"traj2hash/internal/nn"
)

// Objective selects the NCE loss variant for grid pre-training.
type Objective int

const (
	// Logistic is the standard noise-contrastive estimation objective
	// −log σ(e_i·e_p) − log σ(−e_i·e_n); bounded, self-normalizing.
	Logistic Objective = iota
	// Raw is the literal objective of Equation 6, −e_i·e_p + e_i·e_n.
	// Unbounded, so training clamps embedding norms to keep it stable.
	Raw
)

// PretrainConfig controls the NCE pre-training of Section IV-C.
type PretrainConfig struct {
	Dim       int       // embedding dimension d
	Radius    int       // neighbor radius r (paper: 5)
	Positives int       // N_p sampled neighbors per anchor (paper: 1)
	Negatives int       // N_n sampled noise cells per anchor (paper: 1)
	Epochs    int       // passes over all cells
	LR        float64   // SGD learning rate
	Objective Objective // loss variant
	Seed      int64
}

// DefaultPretrainConfig mirrors the paper's settings (Section V-A5) with a
// small number of epochs; the decomposed representation trains in seconds.
func DefaultPretrainConfig(dim int) PretrainConfig {
	return PretrainConfig{
		Dim:       dim,
		Radius:    5,
		Positives: 1,
		Negatives: 1,
		Epochs:    5,
		LR:        0.05,
		Objective: Logistic,
		Seed:      1,
	}
}

// Decomposed is the decomposed grid representation of Equation 5: each cell
// (x, y) is represented as e_x + e_y, so only NX+NY coordinate embeddings
// are learned instead of NX·NY cell embeddings.
type Decomposed struct {
	Grid *Grid
	Dim  int
	Ex   *nn.Tensor // NX×d coordinate embeddings along X
	Ey   *nn.Tensor // NY×d coordinate embeddings along Y
}

// NewDecomposed allocates randomly initialized coordinate embeddings.
func NewDecomposed(g *Grid, dim int, rng *rand.Rand) *Decomposed {
	std := 1 / math.Sqrt(float64(dim))
	return &Decomposed{
		Grid: g,
		Dim:  dim,
		Ex:   nn.Randn(g.NX, dim, std, rng),
		Ey:   nn.Randn(g.NY, dim, std, rng),
	}
}

// Vector writes the embedding of cell (x, y) into out (length Dim).
func (d *Decomposed) Vector(x, y int, out []float64) {
	ex := d.Ex.Data[x*d.Dim : (x+1)*d.Dim]
	ey := d.Ey.Data[y*d.Dim : (y+1)*d.Dim]
	for i := range out {
		out[i] = ex[i] + ey[i]
	}
}

// EmbedCells returns the n×d embedding matrix for a grid trajectory, as a
// graph tensor. The coordinate tables are constants (gradients never reach
// them — they are frozen after pre-training, Section IV-C).
func (d *Decomposed) EmbedCells(cells []int) *nn.Tensor {
	xs := make([]int, len(cells))
	ys := make([]int, len(cells))
	for i, c := range cells {
		xs[i], ys[i] = d.Grid.CoordOf(c)
	}
	return nn.Add(nn.Gather(d.Ex, xs), nn.Gather(d.Ey, ys))
}

// Pretrain runs the NCE pre-training of Equations 6–7: for each cell, pull
// its embedding toward sampled neighbors within the radius and push it from
// uniformly sampled noise cells. Positive offsets are drawn from [1, r] as
// in Equation 7. Returns the mean loss of the final epoch.
func (d *Decomposed) Pretrain(cfg PretrainConfig) float64 {
	rng := rand.New(rand.NewSource(cfg.Seed))
	g := d.Grid
	dim := d.Dim
	ei := make([]float64, dim)
	ep := make([]float64, dim)
	en := make([]float64, dim)
	var lastLoss float64
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		var sum float64
		var cnt int
		for y := 0; y < g.NY; y++ {
			for x := 0; x < g.NX; x++ {
				for s := 0; s < cfg.Positives; s++ {
					// Equation 7: neighbor via offsets from [1, r], clamped.
					px := clampInt(x+1+rng.Intn(cfg.Radius), 0, g.NX-1)
					py := clampInt(y+1+rng.Intn(cfg.Radius), 0, g.NY-1)
					for n := 0; n < cfg.Negatives; n++ {
						nx := rng.Intn(g.NX)
						ny := rng.Intn(g.NY)
						d.Vector(x, y, ei)
						d.Vector(px, py, ep)
						d.Vector(nx, ny, en)
						sum += d.sgdStep(cfg, x, y, px, py, nx, ny, ei, ep, en)
						cnt++
					}
				}
			}
		}
		if cnt > 0 {
			lastLoss = sum / float64(cnt)
		}
	}
	return lastLoss
}

// sgdStep applies one NCE update and returns the sample loss.
func (d *Decomposed) sgdStep(cfg PretrainConfig, x, y, px, py, nx, ny int, ei, ep, en []float64) float64 {
	var dotP, dotN float64
	for k := 0; k < d.Dim; k++ {
		dotP += ei[k] * ep[k]
		dotN += ei[k] * en[k]
	}
	var loss, gp, gn float64
	switch cfg.Objective {
	case Logistic:
		// L = −log σ(dotP) − log σ(−dotN)
		sp := sigmoid(dotP)
		sn := sigmoid(dotN)
		loss = -math.Log(sp+1e-12) - math.Log(1-sn+1e-12)
		gp = sp - 1 // dL/d dotP
		gn = sn     // dL/d dotN
	case Raw:
		// L = −dotP + dotN (Equation 6)
		loss = -dotP + dotN
		gp = -1
		gn = 1
	}
	lr := cfg.LR
	// dL/d e_i = gp·e_p + gn·e_n ; dL/d e_p = gp·e_i ; dL/d e_n = gn·e_i.
	// Each cell embedding decomposes into its two coordinate rows.
	exi := d.Ex.Data[x*d.Dim : (x+1)*d.Dim]
	eyi := d.Ey.Data[y*d.Dim : (y+1)*d.Dim]
	exp_ := d.Ex.Data[px*d.Dim : (px+1)*d.Dim]
	eyp := d.Ey.Data[py*d.Dim : (py+1)*d.Dim]
	exn := d.Ex.Data[nx*d.Dim : (nx+1)*d.Dim]
	eyn := d.Ey.Data[ny*d.Dim : (ny+1)*d.Dim]
	for k := 0; k < d.Dim; k++ {
		gi := gp*ep[k] + gn*en[k]
		gpk := gp * ei[k]
		gnk := gn * ei[k]
		exi[k] -= lr * gi
		eyi[k] -= lr * gi
		exp_[k] -= lr * gpk
		eyp[k] -= lr * gpk
		exn[k] -= lr * gnk
		eyn[k] -= lr * gnk
	}
	if cfg.Objective == Raw {
		// The raw objective is unbounded; clamp row norms for stability.
		clampNorm(exi, 1)
		clampNorm(eyi, 1)
		clampNorm(exp_, 1)
		clampNorm(eyp, 1)
		clampNorm(exn, 1)
		clampNorm(eyn, 1)
	}
	return loss
}

func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func clampNorm(v []float64, maxNorm float64) {
	var s float64
	for _, x := range v {
		s += x * x
	}
	n := math.Sqrt(s)
	if n > maxNorm {
		f := maxNorm / n
		for i := range v {
			v[i] *= f
		}
	}
}
