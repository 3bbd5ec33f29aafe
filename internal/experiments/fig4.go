package experiments

import (
	"fmt"
	"io"

	"traj2hash/internal/core"
)

// fig4 reproduces Figure 4: the effect of the read-out layer. A bare
// Transformer backbone (no grids, no reverse augmentation, no triplets) is
// trained per read-out variant and searched in Euclidean space.
func fig4(scale Scale, log io.Writer) (*Table, error) {
	p := ParamsFor(scale)
	readouts := []core.Readout{core.Mean, core.CLS, core.LowerBound}
	tbl := &Table{
		Title:  "Figure 4 — the effect of different read-out layers (HR@10, Euclidean space)",
		Header: []string{"Dataset", "Distance", "Mean", "CLS", "LowerBound"},
	}
	for _, city := range Cities() {
		env := NewEnv(city, p)
		for _, f := range Distances {
			truth := env.truth(f)
			row := []string{city.Name, f.String()}
			for _, ro := range readouts {
				cfg := p.CoreConfig()
				cfg.UseGrids = false
				cfg.UseRevAug = false
				cfg.UseTriplets = false
				cfg.Gamma = 0 // pure WMSE: only the backbone and read-out differ
				cfg.Readout = ro
				m, err := env.train(cfg, f, false)
				if err != nil {
					return nil, fmt.Errorf("fig4 %s: %w", ro, err)
				}
				em, err := euclideanMetrics(m.EmbedAll, env, truth)
				if err != nil {
					return nil, err
				}
				row = append(row, f4(em.HR10))
				if log != nil {
					fmt.Fprintf(log, "fig4 %s %s %s: HR@10=%.4f\n", city.Name, f, ro, em.HR10)
				}
			}
			tbl.Rows = append(tbl.Rows, row)
		}
	}
	tbl.Notes = append(tbl.Notes, "backbone only: grids, reverse augmentation, and triplets disabled")
	return tbl, nil
}
