package baselines

import (
	"bytes"
	"runtime"
	"testing"

	"traj2hash/internal/core"
	"traj2hash/internal/data"
	"traj2hash/internal/dist"
	"traj2hash/internal/geo"
	"traj2hash/internal/nn"
)

// TestTrainingIsGOMAXPROCSInvariant trains every Net the seed and
// triplet losses fit — the attention model, the CNN, and the
// Transformer, TrajGAT and NeuTraj baselines — at Tiny scale once on one
// core and once on four, and requires byte-identical saved models:
// SaveEncoder's output for the two serializable kinds, the nn.SaveParams
// stream of every parameter (NeuTraj's memory included) for the
// baselines, which have no serialized form.
// A step's taped forwards run on GOMAXPROCS workers; this is the test
// that doing so never moves a bit of a trained model, whatever the
// machine (NeuTraj, whose forwards write its SAM memory, must stay on
// one worker to pass).
func TestTrainingIsGOMAXPROCSInvariant(t *testing.T) {
	// Tiny scale as internal/experiments.ParamsFor(Tiny) sets it, the
	// triplet phase on for every net.
	cfg := core.DefaultConfig(16)
	cfg.MaxLen, cfg.M, cfg.Epochs, cfg.BatchSize = 12, 4, 5, 8
	cfg.TripletBatch, cfg.NumTriplets, cfg.GridCellSize, cfg.Seed = 8, 100, 200, 1
	ds := data.Build(data.Porto(), data.SplitSpec{Seed: 24, Validation: 16, Corpus: 80}, 1)
	space := append(append(append([]geo.Trajectory{}, ds.Seeds...), ds.Validation...), ds.Corpus...)
	td := core.TrainData{Seeds: ds.Seeds, Validation: ds.Validation, Corpus: ds.Corpus, F: dist.HausdorffDist}

	builders := map[string]func() (core.Encoder, error){
		"attention": func() (core.Encoder, error) { return core.New(cfg, space) },
		"cnn":       func() (core.Encoder, error) { return core.NewEncoder(core.CNNKind, cfg, space) },
		"Transformer": func() (core.Encoder, error) {
			return NewTransformer(cfg, space), nil
		},
		"TrajGAT": func() (core.Encoder, error) { return NewTrajGAT(cfg, space), nil },
		"NeuTraj": func() (core.Encoder, error) { return NewNeuTraj(cfg, space) },
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for name, build := range builders {
		t.Run(name, func(t *testing.T) {
			var saved [2][]byte
			for r, procs := range []int{1, 4} {
				runtime.GOMAXPROCS(procs)
				enc, err := build()
				if err != nil {
					t.Fatal(err)
				}
				h, err := enc.(core.Trainable).Train(td)
				if err != nil {
					t.Fatal(err)
				}
				if h.Triplets == 0 {
					t.Fatal("no triplets generated: the triplet loss never ran")
				}
				var buf bytes.Buffer
				if _, ok := enc.(core.EncoderSaver); ok {
					err = core.SaveEncoder(&buf, enc)
				} else {
					err = nn.SaveParams(&buf, enc.(core.Net).Params())
				}
				if err != nil {
					t.Fatal(err)
				}
				saved[r] = buf.Bytes()
			}
			if !bytes.Equal(saved[0], saved[1]) {
				t.Fatal("the encoder trained on GOMAXPROCS=4 is not byte-identical to the one trained on GOMAXPROCS=1")
			}
		})
	}
}
