package experiments

import (
	"fmt"
	"io"

	"traj2hash/internal/core"
	"traj2hash/internal/dist"
)

// sweepDistances: the parameter studies cover DTW and the Fréchet distance
// (Section V-F).
var sweepDistances = []dist.Func{dist.DTWDist, dist.FrechetDist}

// runSweep trains one model per parameter value and reports HR@10 in
// Euclidean and Hamming space.
func runSweep(scale Scale, log io.Writer, title, param string, values []float64,
	apply func(*core.Config, float64)) (*Table, error) {
	p := ParamsFor(scale)
	tbl := &Table{
		Title:  title,
		Header: []string{"Dataset", "Distance", "Space"},
	}
	for _, v := range values {
		tbl.Header = append(tbl.Header, fmt.Sprintf("%s=%g", param, v))
	}
	for _, city := range Cities() {
		env := NewEnv(city, p)
		for _, f := range sweepDistances {
			truth := env.truth(f)
			euRow := []string{city.Name, f.String(), "Euclidean"}
			haRow := []string{city.Name, f.String(), "Hamming"}
			for _, v := range values {
				cfg := p.CoreConfig()
				apply(&cfg, v)
				m, err := env.train(cfg, f, true)
				if err != nil {
					return nil, fmt.Errorf("sweep %s=%g: %w", param, v, err)
				}
				em, err := euclideanMetrics(m.EmbedAll, env, truth)
				if err != nil {
					return nil, err
				}
				hm, err := hammingMetrics(m.CodeAll, env, truth)
				if err != nil {
					return nil, err
				}
				euRow = append(euRow, f4(em.HR10))
				haRow = append(haRow, f4(hm.HR10))
				if log != nil {
					fmt.Fprintf(log, "%s %s %s %s=%g: eu=%.4f ham=%.4f\n",
						param, city.Name, f, param, v, em.HR10, hm.HR10)
				}
			}
			tbl.Rows = append(tbl.Rows, euRow, haRow)
		}
	}
	return tbl, nil
}

// fig8 reproduces Figure 8: the effect of the ranking margin α ∈ [0, 25]
// on HR@10 in both spaces.
func fig8(scale Scale, log io.Writer) (*Table, error) {
	return runSweep(scale, log,
		"Figure 8 — the performance changes with margin α (HR@10)",
		"alpha", []float64{0, 2, 5, 10, 25},
		func(c *core.Config, v float64) { c.Alpha = v })
}

// fig9 reproduces Figure 9: the effect of the balance weight γ ∈ [0, 12]
// on HR@10 in both spaces. γ = 0 disables both ranking losses — the
// Hamming collapse the paper highlights.
func fig9(scale Scale, log io.Writer) (*Table, error) {
	return runSweep(scale, log,
		"Figure 9 — the performance changes with balance weight γ (HR@10)",
		"gamma", []float64{0, 1, 3, 6, 12},
		func(c *core.Config, v float64) { c.Gamma = v })
}
