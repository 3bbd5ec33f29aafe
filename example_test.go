package traj2hash_test

import (
	"context"
	"fmt"
	"log"

	"traj2hash"
)

// Example shows the full pipeline: build a corpus, train a model, index a
// database, and answer a top-k query. (Compile-checked; training runtime
// keeps it out of the executed example set.)
func Example() {
	// Synthetic corpus — substitute your own []traj2hash.Trajectory, e.g.
	// loaded from CSV and projected with traj2hash.ProjectLonLat.
	ds := traj2hash.BuildDataset(traj2hash.Porto(), traj2hash.SplitSpec{
		Seed: 50, Validation: 40, Corpus: 250, Queries: 10, Database: 1000,
	}, 1)

	cfg := traj2hash.DefaultConfig(32)
	model, err := traj2hash.New(cfg, ds.All())
	if err != nil {
		log.Fatal(err)
	}
	if _, err := model.Train(traj2hash.TrainData{
		Seeds: ds.Seeds, Validation: ds.Validation, Corpus: ds.Corpus,
		F: traj2hash.Frechet,
	}); err != nil {
		log.Fatal(err)
	}

	idx, err := traj2hash.NewIndex(model, ds.Database)
	if err != nil {
		log.Fatal(err)
	}
	hits, status := idx.Do(context.Background(), traj2hash.Query{Traj: ds.Queries[0], K: 10})
	if status.Err != nil {
		log.Fatal(status.Err)
	}
	for _, hit := range hits {
		fmt.Println(hit.ID, hit.Score)
	}
}

// ExampleDistance computes exact trajectory distances.
func ExampleDistance() {
	a := traj2hash.Trajectory{{X: 0, Y: 0}, {X: 100, Y: 0}}
	b := traj2hash.Trajectory{{X: 0, Y: 30}, {X: 100, Y: 30}}
	fmt.Println(traj2hash.Distance(traj2hash.Frechet, a, b))
	fmt.Println(traj2hash.Distance(traj2hash.Hausdorff, a, b))
	// Output:
	// 30
	// 30
}

// ExampleEvaluate scores returned rankings against exact ground truth.
func ExampleEvaluate() {
	truth := [][]int{{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}}
	returned := [][]int{{1, 2, 3, 4, 5, 99, 98, 97, 96, 95}}
	m := traj2hash.Evaluate(returned, truth)
	fmt.Printf("%.2f\n", m.HR10)
	// Output:
	// 0.50
}
