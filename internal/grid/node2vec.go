package grid

import (
	"math"
	"math/rand"

	"traj2hash/internal/nn"
)

// Node2VecConfig mirrors the Figure 7 comparison settings: walk length 80,
// 10 walks per node, window 10, return parameter p=1, in-out parameter q=1.
type Node2VecConfig struct {
	Dim       int
	WalkLen   int     // walk length (paper: 80)
	NumWalks  int     // walks per node (paper: 10)
	Window    int     // skip-gram window (paper: 10)
	P         float64 // return parameter (paper: 1)
	Q         float64 // in-out parameter (paper: 1)
	Negatives int     // negative samples per positive
	Epochs    int
	LR        float64
	Seed      int64
}

// DefaultNode2VecConfig returns the paper's Figure 7 parameterization.
func DefaultNode2VecConfig(dim int) Node2VecConfig {
	return Node2VecConfig{
		Dim: dim, WalkLen: 80, NumWalks: 10, Window: 10,
		P: 1, Q: 1, Negatives: 1, Epochs: 1, LR: 0.025, Seed: 1,
	}
}

// Node2Vec learns one independent embedding per grid cell by simulating
// biased random walks over the 8-neighbor grid adjacency graph and training
// skip-gram with negative sampling on the walk corpus [48]. It is the
// higher-freedom, higher-cost alternative the decomposed representation is
// compared against in Figure 7.
type Node2Vec struct {
	Grid  *Grid
	Dim   int
	Table *nn.Tensor // cells×d
	ctx   []float64  // cells×d context ("output") vectors
}

// NewNode2Vec allocates the embedding tables.
func NewNode2Vec(g *Grid, dim int, rng *rand.Rand) *Node2Vec {
	std := 1 / math.Sqrt(float64(dim))
	return &Node2Vec{
		Grid:  g,
		Dim:   dim,
		Table: nn.Randn(g.Cells(), dim, std, rng),
		ctx:   make([]float64, g.Cells()*dim),
	}
}

// neighbors returns the 8-adjacent cell ids of cell c.
func (n *Node2Vec) neighbors(c int) []int {
	x, y := n.Grid.CoordOf(c)
	out := make([]int, 0, 8)
	for dy := -1; dy <= 1; dy++ {
		for dx := -1; dx <= 1; dx++ {
			if dx == 0 && dy == 0 {
				continue
			}
			nx, ny := x+dx, y+dy
			if nx < 0 || nx >= n.Grid.NX || ny < 0 || ny >= n.Grid.NY {
				continue
			}
			out = append(out, ny*n.Grid.NX+nx)
		}
	}
	return out
}

// walk simulates one node2vec walk from start using second-order biases
// 1/p (return), 1 (distance-1 from previous), 1/q (distance-2).
func (n *Node2Vec) walk(start int, cfg Node2VecConfig, rng *rand.Rand) []int {
	w := make([]int, 0, cfg.WalkLen)
	w = append(w, start)
	for len(w) < cfg.WalkLen {
		cur := w[len(w)-1]
		nbrs := n.neighbors(cur)
		if len(nbrs) == 0 {
			break
		}
		//lint:ignore floatcompare p and q are user-set hyper-parameters; exactly 1 is node2vec's documented uniform-walk fast path
		if len(w) == 1 || (cfg.P == 1 && cfg.Q == 1) {
			w = append(w, nbrs[rng.Intn(len(nbrs))])
			continue
		}
		prev := w[len(w)-2]
		px, py := n.Grid.CoordOf(prev)
		weights := make([]float64, len(nbrs))
		var total float64
		for i, nb := range nbrs {
			bx, by := n.Grid.CoordOf(nb)
			var bias float64
			switch {
			case nb == prev:
				bias = 1 / cfg.P
			case absInt(bx-px) <= 1 && absInt(by-py) <= 1:
				bias = 1 // still adjacent to the previous node
			default:
				bias = 1 / cfg.Q
			}
			weights[i] = bias
			total += bias
		}
		r := rng.Float64() * total
		next := nbrs[len(nbrs)-1]
		for i, wt := range weights {
			if r < wt {
				next = nbrs[i]
				break
			}
			r -= wt
		}
		w = append(w, next)
	}
	return w
}

// Train generates the walk corpus and trains skip-gram with negative
// sampling. Returns the number of (center, context) pairs consumed — a
// proxy for training cost in the Figure 7 efficiency comparison.
func (n *Node2Vec) Train(cfg Node2VecConfig) int {
	rng := rand.New(rand.NewSource(cfg.Seed))
	cells := n.Grid.Cells()
	var pairs int
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		for r := 0; r < cfg.NumWalks; r++ {
			for start := 0; start < cells; start++ {
				walk := n.walk(start, cfg, rng)
				for i, center := range walk {
					lo := maxInt(0, i-cfg.Window)
					hi := minInt(len(walk)-1, i+cfg.Window)
					for j := lo; j <= hi; j++ {
						if j == i {
							continue
						}
						n.sgnsStep(center, walk[j], cfg, rng)
						pairs++
					}
				}
			}
		}
	}
	return pairs
}

// sgnsStep applies one skip-gram-with-negative-sampling update.
func (n *Node2Vec) sgnsStep(center, context int, cfg Node2VecConfig, rng *rand.Rand) {
	d := n.Dim
	in := n.Table.Data[center*d : (center+1)*d]
	grad := make([]float64, d)

	update := func(target int, label float64) {
		out := n.ctx[target*d : (target+1)*d]
		var dot float64
		for k := 0; k < d; k++ {
			dot += in[k] * out[k]
		}
		g := (sigmoid(dot) - label) * cfg.LR
		for k := 0; k < d; k++ {
			grad[k] += g * out[k]
			out[k] -= g * in[k]
		}
	}
	update(context, 1)
	for s := 0; s < cfg.Negatives; s++ {
		update(rng.Intn(n.Grid.Cells()), 0)
	}
	for k := 0; k < d; k++ {
		in[k] -= grad[k]
	}
}

// EmbedCells returns the n×d embedding matrix of a grid trajectory as a
// constant tensor (node2vec tables are frozen after training, matching how
// the decomposed embeddings are used).
func (n *Node2Vec) EmbedCells(cells []int) *nn.Tensor {
	return nn.Gather(n.Table, cells)
}

func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
