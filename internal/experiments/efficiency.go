package experiments

import (
	"fmt"
	"io"
	"time"

	"traj2hash/internal/data"
	"traj2hash/internal/dist"
	"traj2hash/internal/engine"
	"traj2hash/internal/geo"
	"traj2hash/internal/hamming"
)

// timingCell is one strategy's measured point of Figures 5 and 6.
type timingCell struct {
	strategy string
	perQuery time.Duration
	fastFrac float64 // fraction of queries answered via table lookup (hybrid)
}

// testDBSizes, when non-nil, overrides the efficiency ladder — the test
// hook companion of testParams. Never set outside tests.
var testDBSizes []int

// efficiencyDBSizes returns the database size ladder per scale: the paper
// sweeps 20K–100K; the scaled ladders preserve the 1:5 span.
func efficiencyDBSizes(s Scale) []int {
	if testDBSizes != nil {
		return testDBSizes
	}
	switch s {
	case Tiny:
		return []int{2000, 4000, 6000, 8000, 10000}
	case Small:
		return []int{4000, 8000, 12000, 16000, 20000}
	case Medium:
		return []int{10000, 20000, 30000, 40000, 50000}
	default:
		return []int{20000, 40000, 60000, 80000, 100000}
	}
}

// efficiencyQueries is the timing query count (a var so tests can shrink it).
var efficiencyQueries = 100

// efficiencyDistances are the two measures the paper's efficiency study
// covers (Section V-E).
var efficiencyDistances = []dist.Func{dist.DTWDist, dist.FrechetDist}

// timingEnv is one (dataset, distance) panel, prepared: embeddings and
// codes for the full database ladder and the query set.
type timingEnv struct {
	db      []engine.Query
	queries []engine.Query
}

// prepareTiming trains one Traj2Hash model and embeds the timing corpus.
// Search cost is independent of model quality, so a short training
// suffices; what matters is that codes follow the real pipeline.
func prepareTiming(city *data.City, f dist.Func, scale Scale) (*timingEnv, error) {
	p := ParamsFor(scale)
	p.Epochs = min(p.Epochs, 3)
	m, err := NewEnv(city, p).train(p.CoreConfig(), f, true)
	if err != nil {
		return nil, err
	}
	sizes := efficiencyDBSizes(scale)
	encode := func(ts []geo.Trajectory) []engine.Query {
		out := make([]engine.Query, len(ts))
		for i, t := range ts {
			emb := m.Embed(t)
			out[i] = engine.Query{Emb: emb, Code: hamming.FromSigns(emb)}
		}
		return out
	}
	return &timingEnv{
		db:      encode(city.Generate(sizes[len(sizes)-1], p.Seed+100)),
		queries: encode(city.Generate(efficiencyQueries, p.Seed+200)),
	}, nil
}

// timeStrategies measures the three Section V-E strategies on a database
// prefix of the given size.
func (te *timingEnv) timeStrategies(dbSize, k int) ([]timingCell, error) {
	n := len(te.queries)
	out := make([]timingCell, 0, 3)
	for _, st := range []struct{ label, backend string }{
		{"Euclidean-BF", engine.EuclideanBFName},
		{"Hamming-BF", engine.HammingBFName},
		{"Hamming-Hybrid", engine.HammingHybridName},
	} {
		s, err := newStrategy(st.backend, te.db[:dbSize], te.queries)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		s.runAll(k)
		out = append(out, timingCell{
			strategy: st.label,
			perQuery: time.Since(start) / time.Duration(n),
			fastFrac: float64(s.fastPaths()) / float64(n),
		})
	}
	return out, nil
}

// timingTable is Figures 5 and 6: the per-query time of the three search
// strategies, one row per (dataset, distance, point) of a swept axis;
// search maps a point to the database size and k it is measured at.
func timingTable(scale Scale, log io.Writer, id, title, axis string, points []int,
	search func(point int) (dbSize, k int)) (*Table, error) {
	tbl := &Table{
		Title:  title,
		Header: []string{"Dataset", "Distance", axis, "Euclidean-BF", "Hamming-BF", "Hamming-Hybrid", "hybrid fast-path"},
	}
	for _, city := range Cities() {
		for _, f := range efficiencyDistances {
			te, err := prepareTiming(city, f, scale)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", id, err)
			}
			for _, pt := range points {
				cs, err := te.timeStrategies(search(pt))
				if err != nil {
					return nil, err
				}
				tbl.Rows = append(tbl.Rows, []string{
					city.Name, f.String(), fmt.Sprintf("%d", pt),
					us(cs[0].perQuery), us(cs[1].perQuery), us(cs[2].perQuery),
					fmt.Sprintf("%.0f%%", cs[2].fastFrac*100),
				})
				if log != nil {
					fmt.Fprintf(log, "%s %s %s %s %d: eu=%v ham=%v hybrid=%v\n",
						id, city.Name, f, axis, pt, cs[0].perQuery, cs[1].perQuery, cs[2].perQuery)
				}
			}
		}
	}
	return tbl, nil
}

// fig5 reproduces Figure 5: per-query time of the three search strategies
// as the database grows, for top-50 search.
func fig5(scale Scale, log io.Writer) (*Table, error) {
	return timingTable(scale, log, "fig5", "Figure 5 — time cost vs database size (top-50, µs/query)",
		"DB size", efficiencyDBSizes(scale), func(size int) (int, int) { return size, 50 })
}

// fig6 reproduces Figure 6: per-query time versus the returned k at the
// largest database size.
func fig6(scale Scale, log io.Writer) (*Table, error) {
	sizes := efficiencyDBSizes(scale)
	return timingTable(scale, log, "fig6", "Figure 6 — time cost vs returned k (µs/query, largest database)",
		"k", []int{10, 20, 30, 40, 50}, func(k int) (int, int) { return sizes[len(sizes)-1], k })
}

func us(d time.Duration) string {
	return fmt.Sprintf("%.1f", float64(d.Nanoseconds())/1000.0)
}
