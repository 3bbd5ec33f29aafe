package experiments

import (
	"fmt"
	"io"

	"traj2hash/internal/dist"
	"traj2hash/internal/engine"
	"traj2hash/internal/eval"
)

// Distances are the three trajectory measures of the evaluation
// (Section V-A2) in paper column order.
var Distances = []dist.Func{dist.FrechetDist, dist.HausdorffDist, dist.DTWDist}

// CellResult is one (dataset, method, distance) cell of Tables I/II.
type CellResult struct {
	Dataset  string
	Method   string
	Distance string
	Metrics  eval.Metrics
}

// Table1 reproduces Table I: top-k accuracy of Euclidean-space search for
// every method × dataset × distance.
func Table1(scale Scale, log io.Writer) (*Table, []CellResult, error) {
	p := ParamsFor(scale)
	tbl := &Table{
		Title: "Table I — performance comparison in Euclidean space (Frechet | Hausdorff | DTW)",
		Header: []string{"Dataset", "Method",
			"HR@10", "HR@50", "R10@50", "HR@10", "HR@50", "R10@50", "HR@10", "HR@50", "R10@50"},
	}
	var cells []CellResult
	for _, city := range Cities() {
		env := NewEnv(city, p)
		// Exact ground truth per distance, shared by all methods.
		truth := map[dist.Func][][]int{}
		for _, f := range Distances {
			truth[f] = eval.GroundTruth(f, env.Dataset.Queries, env.Dataset.Database, 60)
		}
		agnosticCache := map[string]*Trained{}
		for _, name := range MethodNames {
			row := []string{city.Name, name}
			for _, f := range Distances {
				tr, err := trainCached(name, env, f, agnosticCache)
				if err != nil {
					return nil, nil, fmt.Errorf("table1 %s/%s/%v: %w", city.Name, name, f, err)
				}
				m, err := euclideanMetrics(tr, env, truth[f])
				if err != nil {
					return nil, nil, err
				}
				cells = append(cells, CellResult{
					Dataset: city.Name, Method: name, Distance: f.String(), Metrics: m,
				})
				row = append(row, f4(m.HR10), f4(m.HR50), f4(m.R10At50))
				if log != nil {
					fmt.Fprintf(log, "table1 %s %s %s: HR@10=%.4f\n", city.Name, name, f, m.HR10)
				}
			}
			tbl.Rows = append(tbl.Rows, row)
		}
	}
	tbl.Notes = append(tbl.Notes, fmt.Sprintf("scale=%s: %d seeds, %d queries x %d database", scale, p.Split.Seed, p.Split.Queries, p.Split.Database))
	return tbl, cells, nil
}

// trainCached reuses distance-agnostic trainings across distances.
func trainCached(name string, env *Env, f dist.Func, cache map[string]*Trained) (*Trained, error) {
	if DistanceAgnostic(name) {
		if tr, ok := cache[name]; ok {
			return tr, nil
		}
	}
	tr, err := TrainMethod(name, env, f)
	if err != nil {
		return nil, err
	}
	if DistanceAgnostic(name) {
		cache[name] = tr
	}
	return tr, nil
}

// euclideanMetrics embeds queries and database and evaluates brute-force
// Euclidean search against the exact ground truth.
func euclideanMetrics(tr *Trained, env *Env, truth [][]int) (eval.Metrics, error) {
	qe := tr.EmbedAll(env.Dataset.Queries)
	de := tr.EmbedAll(env.Dataset.Database)
	s, err := newStrategy(engine.EuclideanBFName, embQueries(de), embQueries(qe))
	if err != nil {
		return eval.Metrics{}, err
	}
	return eval.Evaluate(s.runAll(60), truth), nil
}
