// Package experiments regenerates every table and figure of the paper's
// evaluation (Section V): Tables I–III and Figures 4–9. Each experiment is
// a function returning a printable Table, registered in All; cmd/traj2hash
// and the root benchmark suite run them through the registry.
//
// Experiments take a Scale: the paper's protocol (10K labelled, 200K
// corpus, 10K queries × 100K database, d = 64) is preserved structurally at
// every scale, but the counts shrink so a single CPU core can run the whole
// suite. Absolute numbers therefore differ from the paper; the comparisons
// (who wins, by roughly what factor, where crossovers fall) are what the
// suite reproduces.
package experiments

import (
	"fmt"

	"traj2hash/internal/core"
	"traj2hash/internal/data"
	"traj2hash/internal/dist"
	"traj2hash/internal/eval"
)

// Scale selects the experimental workload size.
type Scale int

const (
	// Tiny runs in seconds per experiment — the default for benchmarks and
	// CI.
	Tiny Scale = iota
	// Small runs in minutes per experiment — the default for the CLI.
	Small
	// Medium approaches the paper's relative seed/corpus ratios with
	// manageable runtime (tens of minutes for the full suite).
	Medium
	// Paper is the full Section V-A2 protocol. Provided for completeness;
	// expect very long runtimes on CPU.
	Paper
)

// ParseScale converts a flag value.
func ParseScale(s string) (Scale, error) {
	switch s {
	case "tiny":
		return Tiny, nil
	case "small":
		return Small, nil
	case "medium":
		return Medium, nil
	case "paper":
		return Paper, nil
	default:
		return 0, fmt.Errorf("experiments: unknown scale %q (tiny|small|medium|paper)", s)
	}
}

// String names the scale.
func (s Scale) String() string {
	switch s {
	case Tiny:
		return "tiny"
	case Small:
		return "small"
	case Medium:
		return "medium"
	case Paper:
		return "paper"
	default:
		return fmt.Sprintf("Scale(%d)", int(s))
	}
}

// Params concretizes a scale into dataset splits and model settings.
type Params struct {
	Split    data.SplitSpec
	Dim      int
	MaxLen   int
	M        int
	Epochs   int
	Batch    int
	TripletB int
	NumTrips int
	AdEpochs int // hash adapter epochs
	Seed     int64
}

// testParams, when non-nil, overrides ParamsFor for every scale — a test
// hook that lets the full experiment drivers run end-to-end in
// milliseconds. Never set outside tests.
var testParams *Params

// ParamsFor returns the concrete parameters of a scale.
func ParamsFor(s Scale) Params {
	if testParams != nil {
		return *testParams
	}
	switch s {
	case Tiny:
		return Params{
			Split: data.SplitSpec{Seed: 24, Validation: 16, Corpus: 80, Queries: 15, Database: 120},
			Dim:   16, MaxLen: 12, M: 4, Epochs: 5, Batch: 8,
			TripletB: 8, NumTrips: 100, AdEpochs: 10, Seed: 1,
		}
	case Small:
		return Params{
			Split: data.SplitSpec{Seed: 50, Validation: 40, Corpus: 250, Queries: 30, Database: 300},
			Dim:   32, MaxLen: 20, M: 6, Epochs: 10, Batch: 10,
			TripletB: 16, NumTrips: 500, AdEpochs: 20, Seed: 1,
		}
	case Medium:
		return Params{
			Split: data.SplitSpec{Seed: 120, Validation: 100, Corpus: 1500, Queries: 80, Database: 1000},
			Dim:   32, MaxLen: 24, M: 10, Epochs: 20, Batch: 20,
			TripletB: 32, NumTrips: 3000, AdEpochs: 30, Seed: 1,
		}
	default: // Paper
		return Params{
			Split: data.PaperSplit(),
			Dim:   64, MaxLen: 48, M: 10, Epochs: 100, Batch: 20,
			TripletB: 500, NumTrips: 700000, AdEpochs: 50, Seed: 1,
		}
	}
}

// CoreConfig derives a Traj2Hash configuration from the parameters.
func (p Params) CoreConfig() core.Config {
	cfg := core.DefaultConfig(p.Dim)
	cfg.Heads = heads(p.Dim)
	cfg.MaxLen = p.MaxLen
	cfg.M = p.M
	cfg.Epochs = p.Epochs
	cfg.BatchSize = p.Batch
	cfg.TripletBatch = p.TripletB
	cfg.NumTriplets = p.NumTrips
	cfg.Seed = p.Seed
	cfg.GridCellSize = 50
	if p.Dim <= 16 {
		// Tiny scale: coarser grid keeps the NCE pre-training instant.
		cfg.GridCellSize = 200
	}
	return cfg
}

func heads(dim int) int {
	h := 4
	for dim%h != 0 {
		h /= 2
	}
	return h
}

// Env is a prepared dataset at a scale.
type Env struct {
	Params  Params
	Dataset *data.Dataset
}

// NewEnv generates a dataset for the named city at the given scale.
func NewEnv(city *data.City, p Params) *Env {
	return &Env{Params: p, Dataset: data.Build(city, p.Split, p.Seed)}
}

// truth is the exact top-60 ground truth of the queries over the database
// under f, against which every accuracy cell is scored.
func (e *Env) truth(f dist.Func) [][]int {
	return eval.GroundTruth(f, e.Dataset.Queries, e.Dataset.Database, 60)
}

// train builds a Traj2Hash model at cfg and trains it for f on the seeds
// and validation set, plus the unlabelled corpus when withCorpus is set.
func (e *Env) train(cfg core.Config, f dist.Func, withCorpus bool) (*core.Model, error) {
	m, err := core.New(cfg, e.Dataset.All())
	if err != nil {
		return nil, err
	}
	td := core.TrainData{Seeds: e.Dataset.Seeds, Validation: e.Dataset.Validation, F: f}
	if withCorpus {
		td.Corpus = e.Dataset.Corpus
	}
	if _, err := m.Train(td); err != nil {
		return nil, err
	}
	return m, nil
}

// Cities returns the two evaluation datasets of Section V-A1 in paper
// order.
func Cities() []*data.City {
	return []*data.City{data.Porto(), data.ChengDu()}
}

// ResolveEncoder resolves the encoder a serving command (traj2hash
// search, traj2hashd) runs with from its -encoder, -model and -scale
// flags: with no kind it loads whatever the model file holds; a
// training-free kind (geopth) is built from the dataset on the fly — no
// model file and no training run needed; a trainable kind loads the model
// file and insists the stored encoder matches.
func ResolveEncoder(kind, modelPath, scale string, ds *data.Dataset) (core.Encoder, error) {
	if kind == "" {
		return core.LoadEncoderFile(modelPath)
	}
	if err := core.ResolveEncoderKind(kind); err != nil {
		return nil, err
	}
	if kind == core.GeoPTHKind {
		sc, err := ParseScale(scale)
		if err != nil {
			return nil, err
		}
		return core.NewEncoder(kind, ParamsFor(sc).CoreConfig(), ds.All())
	}
	enc, err := core.LoadEncoderFile(modelPath)
	if err != nil {
		return nil, err
	}
	if enc.Kind() != kind {
		return nil, fmt.Errorf("%s holds a %q encoder, but -encoder %s was requested; train one with 'traj2hash train -encoder %s'",
			modelPath, enc.Kind(), kind, kind)
	}
	return enc, nil
}
