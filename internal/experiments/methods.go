package experiments

import (
	"fmt"

	"traj2hash/internal/baselines"
	"traj2hash/internal/core"
	"traj2hash/internal/dist"
	"traj2hash/internal/geo"
	"traj2hash/internal/hamming"
)

// MethodNames lists the Euclidean-space competitors of Table I in the
// paper's row order.
var MethodNames = []string{
	"t2vec", "CL-TSim", "NT-No-SAM", "NeuTraj", "Transformer", "TrajGAT", "Traj2Hash",
}

// HammingMethodNames adds Fresh for Table II (Section V-A3).
var HammingMethodNames = []string{
	"t2vec", "CL-TSim", "NT-No-SAM", "NeuTraj", "Transformer", "TrajGAT", "Fresh", "Traj2Hash",
}

// Trained is a trained method ready to embed and/or hash trajectories.
type Trained struct {
	Name string
	// EmbedAll produces Euclidean-space embeddings (nil for Fresh, which
	// has no dense representation).
	EmbedAll func([]geo.Trajectory) [][]float64
	// CodeAll produces Hamming-space codes. For neural baselines this is
	// only available after AttachHashAdapter.
	CodeAll func([]geo.Trajectory) []hamming.Code

	enc core.Encoder // nil for Fresh and Traj2Hash, which hash natively
}

// DistanceAgnostic reports whether the method trains without the target
// distance (t2vec and CL-TSim), so one training serves all three distances.
func DistanceAgnostic(name string) bool {
	return name == "t2vec" || name == "CL-TSim" || name == "Fresh"
}

// TrainMethod trains the named method on the environment for distance f.
// Every neural method is a core.Trainable fitted by the one training loop
// under the same protocol; the distance-agnostic ones see the unlabelled
// trajectories only, so no exact distance is computed for them.
func TrainMethod(name string, env *Env, f dist.Func) (*Trained, error) {
	p := env.Params
	ds := env.Dataset
	space := ds.All()
	// The baselines share Traj2Hash's settings minus what is the paper's own
	// contribution: no ranking loss, no generated triplets, no grid channel.
	bc := p.CoreConfig()
	bc.Gamma, bc.UseTriplets, bc.UseGrids = 0, false, false
	var enc core.Trainable
	var err error
	switch name {
	case "Traj2Hash":
		m, err := env.train(p.CoreConfig(), f, true)
		if err != nil {
			return nil, err
		}
		return &Trained{Name: name, EmbedAll: m.EmbedAll, CodeAll: m.CodeAll}, nil
	case "Fresh":
		fr := baselines.NewFresh(1000, 4, 16, p.Seed)
		return &Trained{Name: name, CodeAll: fr.CodeAll}, nil
	case "t2vec":
		enc, err = baselines.NewT2Vec(bc, space, 400)
	case "CL-TSim":
		enc = baselines.NewCLTSim(bc, space)
	case "NeuTraj":
		enc, err = baselines.NewNeuTraj(bc, space)
	case "NT-No-SAM":
		enc, err = baselines.NewNTNoSAM(bc, space)
	case "Transformer":
		enc = baselines.NewTransformer(bc, space)
	case "TrajGAT":
		enc = baselines.NewTrajGAT(bc, space)
	default:
		return nil, fmt.Errorf("experiments: unknown method %q", name)
	}
	if err != nil {
		return nil, err
	}
	td := core.TrainData{Seeds: ds.Seeds, Validation: ds.Validation, Corpus: ds.Corpus, F: f}
	if DistanceAgnostic(name) {
		td = core.TrainData{Corpus: append(append([]geo.Trajectory{}, ds.Seeds...), ds.Corpus...)}
	}
	if _, err := enc.Train(td); err != nil {
		return nil, err
	}
	return &Trained{Name: name, EmbedAll: enc.EmbedAll, enc: enc}, nil
}

// AttachHashAdapter fits the Table II linear hash head on a trained neural
// baseline (no-op for methods that hash natively).
func (t *Trained) AttachHashAdapter(env *Env, f dist.Func, bits int) error {
	if t.CodeAll != nil {
		return nil // Traj2Hash and Fresh hash natively
	}
	if t.enc == nil {
		return fmt.Errorf("experiments: %s has no encoder to adapt", t.Name)
	}
	ad := baselines.NewHashAdapter(t.enc, bits, 5, env.Params.Seed)
	cfg := baselines.DefaultAdapterConfig()
	cfg.Epochs = env.Params.AdEpochs
	cfg.M = env.Params.M
	if err := ad.Train(cfg, env.Dataset.Seeds, f); err != nil {
		return err
	}
	t.CodeAll = ad.CodeAll
	return nil
}
