package experiments

import (
	"fmt"
	"io"

	"traj2hash/internal/dist"
	"traj2hash/internal/engine"
	"traj2hash/internal/eval"
)

// Table2 reproduces Table II: top-k accuracy of Hamming-space search. The
// neural baselines are binarized with the ranking-objective hash adapter
// (seeds only); Fresh and Traj2Hash hash natively.
func Table2(scale Scale, log io.Writer) (*Table, []CellResult, error) {
	p := ParamsFor(scale)
	tbl := &Table{
		Title: "Table II — performance comparison in Hamming space (Frechet | Hausdorff | DTW)",
		Header: []string{"Dataset", "Method",
			"HR@10", "HR@50", "R10@50", "HR@10", "HR@50", "R10@50", "HR@10", "HR@50", "R10@50"},
	}
	var cells []CellResult
	for _, city := range Cities() {
		env := NewEnv(city, p)
		truth := map[dist.Func][][]int{}
		for _, f := range Distances {
			truth[f] = eval.GroundTruth(f, env.Dataset.Queries, env.Dataset.Database, 60)
		}
		agnosticCache := map[string]*Trained{}
		for _, name := range HammingMethodNames {
			row := []string{city.Name, name}
			for _, f := range Distances {
				tr, err := trainCached(name, env, f, agnosticCache)
				if err != nil {
					return nil, nil, fmt.Errorf("table2 %s/%s/%v: %w", city.Name, name, f, err)
				}
				if err := tr.AttachHashAdapter(env, f, p.Dim); err != nil {
					return nil, nil, fmt.Errorf("table2 adapter %s: %w", name, err)
				}
				m, err := hammingMetrics(tr, env, truth[f])
				if err != nil {
					return nil, nil, err
				}
				cells = append(cells, CellResult{
					Dataset: city.Name, Method: name, Distance: f.String(), Metrics: m,
				})
				row = append(row, f4(m.HR10), f4(m.HR50), f4(m.R10At50))
				if log != nil {
					fmt.Fprintf(log, "table2 %s %s %s: HR@10=%.4f\n", city.Name, name, f, m.HR10)
				}
			}
			tbl.Rows = append(tbl.Rows, row)
		}
	}
	tbl.Notes = append(tbl.Notes,
		"neural baselines hashed via the ranking-objective linear adapter trained on seeds only (Section V-A3)")
	return tbl, cells, nil
}

// hammingMetrics hashes queries and database and evaluates brute-force
// Hamming search against the exact ground truth.
func hammingMetrics(tr *Trained, env *Env, truth [][]int) (eval.Metrics, error) {
	qc := tr.CodeAll(env.Dataset.Queries)
	dc := tr.CodeAll(env.Dataset.Database)
	s, err := newStrategy(engine.HammingBFName, codeQueries(dc), codeQueries(qc))
	if err != nil {
		return eval.Metrics{}, err
	}
	return eval.Evaluate(s.runAll(60), truth), nil
}

// Note on the distance-agnostic cache: AttachHashAdapter is a no-op once a
// method has codes, so a cached t2vec/CL-TSim keeps the adapter fitted for
// its first distance. Their encoders carry no distance information, so this
// matches the protocol in effect while keeping Table II affordable.
