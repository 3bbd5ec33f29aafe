package experiments

import (
	"fmt"
	"io"
	"time"

	"traj2hash/internal/dist"
	"traj2hash/internal/engine"
	"traj2hash/internal/eval"
	"traj2hash/internal/geo"
	"traj2hash/internal/topk"
)

// extraCDTW is an extension experiment beyond the paper's figures: it
// quantifies the Related-Work claim that cDTW — the traditional fast DTW
// approximation [26]–[28] — trades accuracy for speed and is still
// dominated by learned embeddings. For DTW ground truth on both datasets,
// it compares cDTW at several Sakoe–Chiba widths against Traj2Hash's
// Euclidean-space search, on HR@10, R10@50, and per-query latency.
func extraCDTW(scale Scale, log io.Writer) (*Table, error) {
	p := ParamsFor(scale)
	tbl := &Table{
		Title:  "Extra — cDTW band width vs learned embeddings (DTW ground truth)",
		Header: []string{"Dataset", "Method", "HR@10", "R10@50", "per query"},
	}
	for _, city := range Cities() {
		env := NewEnv(city, p)
		queries, db := env.Dataset.Queries, env.Dataset.Database
		truth := env.truth(dist.DTWDist)
		// timed runs one method's top-60 search for every query and adds
		// its row; the latency covers the search alone.
		timed := func(method string, search func() [][]int) {
			start := time.Now()
			returned := search()
			per := time.Since(start) / time.Duration(len(queries))
			m := eval.Evaluate(returned, truth)
			tbl.Rows = append(tbl.Rows, []string{
				city.Name, method, f4(m.HR10), f4(m.R10At50), per.Round(time.Microsecond).String(),
			})
			if log != nil {
				fmt.Fprintf(log, "cdtw %s %s: HR@10=%.4f %v/query\n", city.Name, method, m.HR10, per)
			}
		}

		// cDTW at increasing band widths: scans the whole database per
		// query with the constrained dynamic program.
		for _, w := range []int{1, 3, 8} {
			timed(fmt.Sprintf("cDTW(w=%d)", w), func() [][]int { return cdtwSearch(queries, db, w, 60) })
		}

		// Traj2Hash Euclidean-space search on the same ground truth.
		m, err := env.train(p.CoreConfig(), dist.DTWDist, true)
		if err != nil {
			return nil, fmt.Errorf("extra-cdtw: %w", err)
		}
		qe := m.EmbedAll(queries)
		s, err := newStrategy(engine.EuclideanBFName, embQueries(m.EmbedAll(db)), embQueries(qe))
		if err != nil {
			return nil, err
		}
		timed("Traj2Hash", func() [][]int { return s.runAll(60) })
	}
	tbl.Notes = append(tbl.Notes,
		"cDTW latency excludes nothing: it runs the banded dynamic program against every database trajectory",
		"Traj2Hash latency is search only; embedding the database is a one-time indexing cost")
	return tbl, nil
}

// cdtwSearch scans the database with banded DTW for each query.
func cdtwSearch(queries, db []geo.Trajectory, w, k int) [][]int {
	out := make([][]int, len(queries))
	for i, q := range queries {
		items := topk.Select(len(db), k, func(j int) float64 {
			return dist.CDTW(q, db[j], w)
		})
		ids := make([]int, len(items))
		for r, it := range items {
			ids[r] = it.ID
		}
		out[i] = ids
	}
	return out
}
