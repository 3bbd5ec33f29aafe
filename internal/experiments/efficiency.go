package experiments

import (
	"fmt"
	"io"
	"time"

	"traj2hash/internal/core"
	"traj2hash/internal/dist"
	"traj2hash/internal/engine"
	"traj2hash/internal/geo"
	"traj2hash/internal/hamming"
)

// TimingCell is one measured point of Figures 5 and 6.
type TimingCell struct {
	Dataset  string
	Distance string
	Strategy string
	DBSize   int
	K        int
	PerQuery time.Duration
	FastFrac float64 // fraction of queries answered via table lookup (hybrid)
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

// timingEnv is a prepared dataset+model for one (dataset, distance) panel:
// embeddings and codes for the full database ladder and the query set.
type timingEnv struct {
	dataset string
	dist    string
	db      []engine.Query
	queries []engine.Query
}

// prepareTiming trains one Traj2Hash model and embeds the timing corpus.
// Search cost is independent of model quality, so a short training
// suffices; what matters is that codes follow the real pipeline.
func prepareTiming(cityIdx int, f dist.Func, scale Scale) (*timingEnv, error) {
	p := ParamsFor(scale)
	p.Epochs = min(p.Epochs, 3)
	city := Cities()[cityIdx]
	env := NewEnv(city, p)
	m, err := core.New(p.CoreConfig(), env.Dataset.All())
	if err != nil {
		return nil, err
	}
	if _, err := m.Train(core.TrainData{
		Seeds: env.Dataset.Seeds, Validation: env.Dataset.Validation,
		Corpus: env.Dataset.Corpus, F: f,
	}); err != nil {
		return nil, err
	}
	sizes := efficiencyDBSizes(scale)
	maxDB := sizes[len(sizes)-1]
	db := city.Generate(maxDB, p.Seed+100)
	queries := city.Generate(efficiencyQueries, p.Seed+200)

	te := &timingEnv{dataset: city.Name, dist: f.String()}
	encode := func(ts []geo.Trajectory) []engine.Query {
		out := make([]engine.Query, len(ts))
		for i, t := range ts {
			emb := m.Embed(t)
			out[i] = engine.Query{Emb: emb, Code: hamming.FromSigns(emb)}
		}
		return out
	}
	te.db, te.queries = encode(db), encode(queries)
	return te, nil
}

// timeStrategies measures the three Section V-E strategies on a database
// prefix of the given size.
func (te *timingEnv) timeStrategies(dbSize, k int) ([]TimingCell, error) {
	n := len(te.queries)
	out := make([]TimingCell, 0, 3)
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
		out = append(out, TimingCell{
			Dataset: te.dataset, Distance: te.dist, Strategy: st.label,
			DBSize: dbSize, K: k, PerQuery: time.Since(start) / time.Duration(n),
			FastFrac: float64(s.fastPaths()) / float64(n),
		})
	}
	return out, nil
}

// Fig5 reproduces Figure 5: per-query time of the three search strategies
// as the database grows, for top-50 search.
func Fig5(scale Scale, log io.Writer) (*Table, []TimingCell, error) {
	tbl := &Table{
		Title:  "Figure 5 — time cost vs database size (top-50, µs/query)",
		Header: []string{"Dataset", "Distance", "DB size", "Euclidean-BF", "Hamming-BF", "Hamming-Hybrid", "hybrid fast-path"},
	}
	var cells []TimingCell
	for ci := range Cities() {
		for _, f := range efficiencyDistances {
			te, err := prepareTiming(ci, f, scale)
			if err != nil {
				return nil, nil, fmt.Errorf("fig5: %w", err)
			}
			for _, size := range efficiencyDBSizes(scale) {
				cs, err := te.timeStrategies(size, 50)
				if err != nil {
					return nil, nil, err
				}
				cells = append(cells, cs...)
				tbl.Rows = append(tbl.Rows, []string{
					te.dataset, te.dist, fmt.Sprintf("%d", size),
					us(cs[0].PerQuery), us(cs[1].PerQuery), us(cs[2].PerQuery),
					fmt.Sprintf("%.0f%%", cs[2].FastFrac*100),
				})
				if log != nil {
					fmt.Fprintf(log, "fig5 %s %s db=%d: eu=%v ham=%v hybrid=%v\n",
						te.dataset, te.dist, size, cs[0].PerQuery, cs[1].PerQuery, cs[2].PerQuery)
				}
			}
		}
	}
	return tbl, cells, nil
}

// Fig6 reproduces Figure 6: per-query time versus the returned k at the
// largest database size.
func Fig6(scale Scale, log io.Writer) (*Table, []TimingCell, error) {
	tbl := &Table{
		Title:  "Figure 6 — time cost vs returned k (µs/query, largest database)",
		Header: []string{"Dataset", "Distance", "k", "Euclidean-BF", "Hamming-BF", "Hamming-Hybrid", "hybrid fast-path"},
	}
	sizes := efficiencyDBSizes(scale)
	dbSize := sizes[len(sizes)-1]
	var cells []TimingCell
	for ci := range Cities() {
		for _, f := range efficiencyDistances {
			te, err := prepareTiming(ci, f, scale)
			if err != nil {
				return nil, nil, fmt.Errorf("fig6: %w", err)
			}
			for _, k := range []int{10, 20, 30, 40, 50} {
				cs, err := te.timeStrategies(dbSize, k)
				if err != nil {
					return nil, nil, err
				}
				cells = append(cells, cs...)
				tbl.Rows = append(tbl.Rows, []string{
					te.dataset, te.dist, fmt.Sprintf("%d", k),
					us(cs[0].PerQuery), us(cs[1].PerQuery), us(cs[2].PerQuery),
					fmt.Sprintf("%.0f%%", cs[2].FastFrac*100),
				})
				if log != nil {
					fmt.Fprintf(log, "fig6 %s %s k=%d: eu=%v ham=%v hybrid=%v\n",
						te.dataset, te.dist, k, cs[0].PerQuery, cs[1].PerQuery, cs[2].PerQuery)
				}
			}
		}
	}
	return tbl, cells, nil
}

func us(d time.Duration) string {
	return fmt.Sprintf("%.1f", float64(d.Nanoseconds())/1000.0)
}
