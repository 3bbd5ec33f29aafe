package data

import (
	"encoding/gob"
	"fmt"
	"math/rand"
	"os"

	"traj2hash/internal/geo"
)

// SplitSpec gives the sizes of the experimental splits of Section V-A2:
// a labelled set (seed + validation), a triplet corpus, and a disjoint
// test set of queries and database trajectories.
type SplitSpec struct {
	Seed       int // trajectories with exact pairwise distances (20% of labelled)
	Validation int // labelled trajectories held out for model selection (80%)
	Corpus     int // unlabelled corpus for fast triplet generation
	Queries    int // test queries
	Database   int // test database
}

// PaperSplit is the paper's full protocol: 10K labelled (2K seed + 8K
// validation), 200K corpus, 10K queries, 100K database.
func PaperSplit() SplitSpec {
	return SplitSpec{Seed: 2000, Validation: 8000, Corpus: 200000, Queries: 10000, Database: 100000}
}

// Total returns the number of trajectories the spec consumes.
func (s SplitSpec) Total() int {
	return s.Seed + s.Validation + s.Corpus + s.Queries + s.Database
}

// Dataset is a named, split trajectory collection.
type Dataset struct {
	Name       string
	Seeds      []geo.Trajectory
	Validation []geo.Trajectory
	Corpus     []geo.Trajectory
	Queries    []geo.Trajectory
	Database   []geo.Trajectory
}

// Build generates spec.Total() trajectories from the city model, shuffles
// them, and slices the splits. Deterministic for a given seed.
func Build(c *City, spec SplitSpec, seed int64) *Dataset {
	ts := c.Generate(spec.Total(), seed)
	rng := rand.New(rand.NewSource(seed + 1))
	rng.Shuffle(len(ts), func(i, j int) { ts[i], ts[j] = ts[j], ts[i] })
	d := &Dataset{Name: c.Name}
	cut := func(n int) []geo.Trajectory {
		out := ts[:n]
		ts = ts[n:]
		return out
	}
	d.Seeds = cut(spec.Seed)
	d.Validation = cut(spec.Validation)
	d.Corpus = cut(spec.Corpus)
	d.Queries = cut(spec.Queries)
	d.Database = cut(spec.Database)
	return d
}

// SplitByFractions shuffles user-provided trajectories and splits them by
// the given fractions (seeds, validation, corpus, queries); the remainder
// becomes the database. Fractions must be positive and sum below 1.
func SplitByFractions(name string, ts []geo.Trajectory, seedF, valF, corpusF, queryF float64, seed int64) (*Dataset, error) {
	total := seedF + valF + corpusF + queryF
	if seedF <= 0 || valF <= 0 || corpusF <= 0 || queryF <= 0 || total >= 1 {
		return nil, fmt.Errorf("data: fractions must be positive and sum below 1, got %v", total)
	}
	shuffled := append([]geo.Trajectory(nil), ts...)
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	n := len(shuffled)
	count := func(f float64) int {
		c := int(f * float64(n))
		if c < 1 {
			c = 1
		}
		return c
	}
	d := &Dataset{Name: name}
	cut := func(k int) []geo.Trajectory {
		if k > len(shuffled) {
			k = len(shuffled)
		}
		out := shuffled[:k]
		shuffled = shuffled[k:]
		return out
	}
	d.Seeds = cut(count(seedF))
	d.Validation = cut(count(valF))
	d.Corpus = cut(count(corpusF))
	d.Queries = cut(count(queryF))
	d.Database = shuffled
	if len(d.Database) == 0 {
		return nil, fmt.Errorf("data: no trajectories left for the database")
	}
	return d, nil
}

// All returns every trajectory across all splits (seeds, validation,
// corpus, queries, database) — used to fit grids and normalization stats.
func (d *Dataset) All() []geo.Trajectory {
	out := make([]geo.Trajectory, 0, len(d.Seeds)+len(d.Validation)+len(d.Corpus)+len(d.Queries)+len(d.Database))
	out = append(out, d.Seeds...)
	out = append(out, d.Validation...)
	out = append(out, d.Corpus...)
	out = append(out, d.Queries...)
	out = append(out, d.Database...)
	return out
}

// Save writes the dataset to path with encoding/gob.
func (d *Dataset) Save(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("data: save: %w", err)
	}
	defer f.Close()
	if err := gob.NewEncoder(f).Encode(d); err != nil {
		return fmt.Errorf("data: encode: %w", err)
	}
	return f.Close()
}

// Load reads a dataset written by Save.
func Load(path string) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("data: load: %w", err)
	}
	defer f.Close()
	var d Dataset
	if err := gob.NewDecoder(f).Decode(&d); err != nil {
		return nil, fmt.Errorf("data: decode: %w", err)
	}
	return &d, nil
}

// Filter returns the trajectories passing the Section V-A1 length filter.
func Filter(ts []geo.Trajectory, minPoints int) []geo.Trajectory {
	out := make([]geo.Trajectory, 0, len(ts))
	for _, t := range ts {
		if t.Validate(minPoints) == nil {
			out = append(out, t)
		}
	}
	return out
}
