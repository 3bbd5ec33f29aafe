package experiments

import (
	"fmt"
	"io"

	"traj2hash/internal/core"
	"traj2hash/internal/dist"
)

// fig7 reproduces Figure 7: the decomposed grid representation versus
// node2vec cell embeddings versus no grid channel at all, on Porto, plus
// the pre-training-time comparison discussed in Section V-D (decomposed:
// ~80 s vs node2vec: >2 h at paper scale).
func fig7(scale Scale, log io.Writer) (*Table, error) {
	p := ParamsFor(scale)
	env := NewEnv(Cities()[0], p) // Porto
	f := dist.FrechetDist
	truth := env.truth(f)

	variants := []struct {
		name   string
		mutate func(*core.Config)
	}{
		{"Decomposed", func(c *core.Config) { c.GridRep = core.DecomposedNCE }},
		{"Node2vec", func(c *core.Config) { c.GridRep = core.Node2VecRep }},
		{"-Grids", func(c *core.Config) { c.UseGrids = false }},
	}
	tbl := &Table{
		Title:  "Figure 7 — the effect of different grid representations (Porto, Frechet)",
		Header: []string{"Variant", "HR@10", "R10@50", "grid pre-train"},
	}
	for _, v := range variants {
		cfg := p.CoreConfig()
		v.mutate(&cfg)
		m, err := env.train(cfg, f, true)
		if err != nil {
			return nil, fmt.Errorf("fig7 %s: %w", v.name, err)
		}
		em, err := euclideanMetrics(m.EmbedAll, env, truth)
		if err != nil {
			return nil, err
		}
		tbl.Rows = append(tbl.Rows, []string{v.name, f4(em.HR10), f4(em.R10At50), m.GridPretrainTime.String()})
		if log != nil {
			fmt.Fprintf(log, "fig7 %s: HR@10=%.4f R10@50=%.4f pretrain=%v\n",
				v.name, em.HR10, em.R10At50, m.GridPretrainTime)
		}
	}
	tbl.Notes = append(tbl.Notes,
		"node2vec: walk length 80, 10 walks, window 10, p=q=1 (bounded on large grids)")
	return tbl, nil
}
