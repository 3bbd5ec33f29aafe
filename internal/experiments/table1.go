package experiments

import (
	"fmt"
	"io"

	"traj2hash/internal/dist"
	"traj2hash/internal/engine"
	"traj2hash/internal/eval"
	"traj2hash/internal/geo"
	"traj2hash/internal/hamming"
)

// Distances are the three trajectory measures of the evaluation
// (Section V-A2) in paper column order.
var Distances = []dist.Func{dist.FrechetDist, dist.HausdorffDist, dist.DTWDist}

// table1 reproduces Table I: top-k accuracy of Euclidean-space search for
// every method × dataset × distance.
func table1(scale Scale, log io.Writer) (*Table, error) {
	p := ParamsFor(scale)
	return methodTable(scale, log, "table1",
		"Table I — performance comparison in Euclidean space (Frechet | Hausdorff | DTW)", MethodNames,
		func(tr *Trained, env *Env, f dist.Func, truth [][]int) (eval.Metrics, error) {
			return euclideanMetrics(tr.EmbedAll, env, truth)
		},
		fmt.Sprintf("scale=%s: %d seeds, %d queries x %d database", scale, p.Split.Seed, p.Split.Queries, p.Split.Database))
}

// table2 reproduces Table II: top-k accuracy of Hamming-space search. The
// neural baselines are binarized with the ranking-objective hash adapter
// (seeds only); Fresh and Traj2Hash hash natively.
func table2(scale Scale, log io.Writer) (*Table, error) {
	return methodTable(scale, log, "table2",
		"Table II — performance comparison in Hamming space (Frechet | Hausdorff | DTW)", HammingMethodNames,
		func(tr *Trained, env *Env, f dist.Func, truth [][]int) (eval.Metrics, error) {
			if err := tr.AttachHashAdapter(env, f, env.Params.Dim); err != nil {
				return eval.Metrics{}, fmt.Errorf("adapter: %w", err)
			}
			return hammingMetrics(tr.CodeAll, env, truth)
		},
		"neural baselines hashed via the ranking-objective linear adapter trained on seeds only (Section V-A3)")
}

// methodTable is the loop of Tables I and II: every method × dataset ×
// distance, trained once and scored in one space by score.
func methodTable(scale Scale, log io.Writer, id, title string, methods []string,
	score func(tr *Trained, env *Env, f dist.Func, truth [][]int) (eval.Metrics, error), note string) (*Table, error) {
	tbl := &Table{
		Title: title,
		Header: []string{"Dataset", "Method",
			"HR@10", "HR@50", "R10@50", "HR@10", "HR@50", "R10@50", "HR@10", "HR@50", "R10@50"},
		Notes: []string{note},
	}
	for _, city := range Cities() {
		env := NewEnv(city, ParamsFor(scale))
		// Exact ground truth per distance, shared by all methods.
		truth := map[dist.Func][][]int{}
		for _, f := range Distances {
			truth[f] = env.truth(f)
		}
		agnosticCache := map[string]*Trained{}
		for _, name := range methods {
			row := []string{city.Name, name}
			for _, f := range Distances {
				tr, err := trainCached(name, env, f, agnosticCache)
				if err != nil {
					return nil, fmt.Errorf("%s %s/%s/%v: %w", id, city.Name, name, f, err)
				}
				m, err := score(tr, env, f, truth[f])
				if err != nil {
					return nil, fmt.Errorf("%s %s/%s/%v: %w", id, city.Name, name, f, err)
				}
				row = append(row, f4(m.HR10), f4(m.HR50), f4(m.R10At50))
				if log != nil {
					fmt.Fprintf(log, "%s %s %s %s: HR@10=%.4f\n", id, city.Name, name, f, m.HR10)
				}
			}
			tbl.Rows = append(tbl.Rows, row)
		}
	}
	return tbl, nil
}

// trainCached reuses distance-agnostic trainings across distances. A cached
// t2vec/CL-TSim keeps the hash adapter fitted for its first distance
// (AttachHashAdapter is a no-op once a method has codes); their encoders
// carry no distance information, so this matches the protocol in effect
// while keeping Table II affordable.
func trainCached(name string, env *Env, f dist.Func, cache map[string]*Trained) (*Trained, error) {
	if tr, ok := cache[name]; ok {
		return tr, nil
	}
	tr, err := TrainMethod(name, env, f)
	if err == nil && DistanceAgnostic(name) {
		cache[name] = tr
	}
	return tr, err
}

// euclideanMetrics embeds queries and database with embed and evaluates
// brute-force Euclidean search against the exact ground truth.
func euclideanMetrics(embed func([]geo.Trajectory) [][]float64, env *Env, truth [][]int) (eval.Metrics, error) {
	qe := embed(env.Dataset.Queries)
	s, err := newStrategy(engine.EuclideanBFName, embQueries(embed(env.Dataset.Database)), embQueries(qe))
	if err != nil {
		return eval.Metrics{}, err
	}
	return eval.Evaluate(s.runAll(60), truth), nil
}

// hammingMetrics hashes queries and database with code and evaluates
// brute-force Hamming search against the exact ground truth.
func hammingMetrics(code func([]geo.Trajectory) []hamming.Code, env *Env, truth [][]int) (eval.Metrics, error) {
	qc := code(env.Dataset.Queries)
	s, err := newStrategy(engine.HammingBFName, codeQueries(code(env.Dataset.Database)), codeQueries(qc))
	if err != nil {
		return eval.Metrics{}, err
	}
	return eval.Evaluate(s.runAll(60), truth), nil
}
