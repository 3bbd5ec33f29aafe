package experiments

import (
	"fmt"
	"io"
	"time"

	"traj2hash/internal/core"
	"traj2hash/internal/data"
	"traj2hash/internal/dist"
	"traj2hash/internal/engine"
	"traj2hash/internal/eval"
)

// encoderRace races every registered encoder kind on the same dataset
// and protocol: Hamming-space retrieval accuracy (HR@10/HR@50/R10@50
// against exact Fréchet ground truth) next to what each encoder paid to
// get there — optimizer steps, training wall-clock, per-trajectory
// encoding latency, and per-query search latency. The training-free
// GeoPTH row shows 0 steps by construction; the point of the table is
// the accuracy-vs-cost frontier across the encoder zoo, not a single
// winner.
func encoderRace(scale Scale, log io.Writer) (*Table, error) {
	p := ParamsFor(scale)
	env := NewEnv(data.Porto(), p)
	ds := env.Dataset
	truth := env.truth(dist.FrechetDist)

	tbl := &Table{
		Title: "Encoder zoo — Hamming-space accuracy vs training and query cost (Porto, Frechet)",
		Header: []string{"Encoder", "TrainSteps", "TrainSec",
			"HR@10", "HR@50", "R10@50", "Encode µs/traj", "Search µs/query"},
	}
	for _, kind := range core.EncoderKinds() {
		cfg := p.CoreConfig()
		enc, err := core.NewEncoder(kind, cfg, ds.All())
		if err != nil {
			return nil, fmt.Errorf("encoders %s: %w", kind, err)
		}

		steps := 0
		var trainDur time.Duration
		if tr, ok := enc.(core.Trainable); ok {
			start := time.Now()
			if _, err := tr.Train(core.TrainData{
				Seeds: ds.Seeds, Validation: ds.Validation, Corpus: ds.Corpus,
				F:        dist.FrechetDist,
				StepHook: func(epoch, step int) { steps++ },
			}); err != nil {
				return nil, fmt.Errorf("encoders %s train: %w", kind, err)
			}
			trainDur = time.Since(start)
		}

		encStart := time.Now()
		dc := enc.CodeAll(ds.Database)
		qc := enc.CodeAll(ds.Queries)
		encoded := len(ds.Database) + len(ds.Queries)
		encodePer := time.Since(encStart) / time.Duration(encoded)

		s, err := newStrategy(engine.HammingBFName, codeQueries(dc), codeQueries(qc))
		if err != nil {
			return nil, fmt.Errorf("encoders %s search: %w", kind, err)
		}
		searchStart := time.Now()
		returned := s.runAll(60)
		searchPer := time.Since(searchStart) / time.Duration(len(qc))

		m := eval.Evaluate(returned, truth)
		tbl.Rows = append(tbl.Rows, []string{
			kind,
			fmt.Sprintf("%d", steps),
			fmt.Sprintf("%.2f", trainDur.Seconds()),
			f4(m.HR10), f4(m.HR50), f4(m.R10At50),
			fmt.Sprintf("%.1f", float64(encodePer.Nanoseconds())/1e3),
			fmt.Sprintf("%.1f", float64(searchPer.Nanoseconds())/1e3),
		})
		if log != nil {
			fmt.Fprintf(log, "encoders %s: steps=%d HR@10=%.4f encode=%v/traj\n",
				kind, steps, m.HR10, encodePer)
		}
	}
	tbl.Notes = append(tbl.Notes,
		"all encoders share the dataset, bit width, and brute-force Hamming search; only the encoder varies",
		"geopth is training-free: the index is ready the moment the prototypes are chosen (0 steps)")
	return tbl, nil
}
