package experiments

import (
	"fmt"
	"io"

	"traj2hash/internal/core"
	"traj2hash/internal/dist"
)

// AblationVariants are the cumulative ablations of Section V-D: each
// variant also removes everything the previous one removed.
var AblationVariants = []string{"Traj2Hash", "-Grids", "-RevAug", "-Triplets"}

// ablationConfig applies a variant to a base configuration.
func ablationConfig(base core.Config, variant string) core.Config {
	cfg := base
	switch variant {
	case "Traj2Hash":
	case "-Grids":
		cfg.UseGrids = false
	case "-RevAug":
		cfg.UseGrids = false
		cfg.UseRevAug = false
	case "-Triplets":
		cfg.UseGrids = false
		cfg.UseRevAug = false
		cfg.UseTriplets = false
	}
	return cfg
}

// table3 reproduces Table III: the component ablation on the Fréchet
// distance and DTW, evaluated in Euclidean and Hamming space.
func table3(scale Scale, log io.Writer) (*Table, error) {
	p := ParamsFor(scale)
	tbl := &Table{
		Title:  "Table III — ablation study (-Grids, -RevAug, -Triplets)",
		Header: []string{"Dataset", "Distance", "Space", "Metric", "Traj2Hash", "-Grids", "-RevAug", "-Triplets"},
	}
	for _, city := range Cities() {
		env := NewEnv(city, p)
		for _, f := range []dist.Func{dist.FrechetDist, dist.DTWDist} {
			truth := env.truth(f)
			// One row per space × metric; the variants fill the columns.
			rows := make([][]string, 6)
			for i := range rows {
				space, metric := []string{"Euclidean", "Hamming"}[i/3], []string{"HR@10", "HR@50", "R10@50"}[i%3]
				rows[i] = []string{city.Name, f.String(), space, metric}
			}
			for _, variant := range AblationVariants {
				m, err := env.train(ablationConfig(p.CoreConfig(), variant), f, true)
				if err != nil {
					return nil, fmt.Errorf("table3 %s: %w", variant, err)
				}
				em, err := euclideanMetrics(m.EmbedAll, env, truth)
				if err != nil {
					return nil, err
				}
				hm, err := hammingMetrics(m.CodeAll, env, truth)
				if err != nil {
					return nil, err
				}
				for i, v := range []float64{em.HR10, em.HR50, em.R10At50, hm.HR10, hm.HR50, hm.R10At50} {
					rows[i] = append(rows[i], f4(v))
				}
				fmt.Fprintf(log, "table3 %s %s %s: eu HR@10=%.4f ham HR@10=%.4f\n",
					city.Name, f, variant, em.HR10, hm.HR10)
			}
			tbl.Rows = append(tbl.Rows, rows...)
		}
	}
	tbl.Notes = append(tbl.Notes, "ablations are cumulative: -RevAug also drops grids; -Triplets drops all three")
	return tbl, nil
}
