// Quickstart: train a small Traj2Hash model on synthetic taxi data, then
// use it for the two things the paper builds it for — fast approximate
// similarity computation in Euclidean space and top-k similar trajectory
// search in Hamming space. Uses only the library's public API.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"traj2hash"
)

func main() {
	// 1. Data: a Porto-like synthetic taxi corpus (the real dataset is
	//    proprietary; see DESIGN.md for the substitution rationale).
	ds := traj2hash.BuildDataset(traj2hash.Porto(), traj2hash.SplitSpec{
		Seed: 40, Validation: 30, Corpus: 150, Queries: 5, Database: 2000,
	}, 42)
	fmt.Printf("dataset: %d seeds, %d corpus, %d database trajectories\n",
		len(ds.Seeds), len(ds.Corpus), len(ds.Database))

	// 2. Model: paper defaults scaled to d=32 for CPU training.
	cfg := traj2hash.DefaultConfig(32)
	cfg.MaxLen = 20
	cfg.M = 6
	cfg.Epochs = 8
	cfg.BatchSize = 10
	m, err := traj2hash.New(cfg, ds.All())
	if err != nil {
		log.Fatal(err)
	}

	// 3. Train against the Fréchet distance (DTW and Hausdorff work the
	//    same way — pass traj2hash.DTW or traj2hash.Hausdorff).
	start := time.Now()
	hist, err := m.Train(traj2hash.TrainData{
		Seeds: ds.Seeds, Validation: ds.Validation, Corpus: ds.Corpus,
		F: traj2hash.Frechet,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained in %v: validation HR@10 %.3f (epoch %d), %d generated triplets\n",
		time.Since(start).Round(time.Millisecond), hist.BestHR10, hist.BestEpoch, hist.Triplets)

	// 4. Index the database once; queries are then O(d) per candidate
	//    instead of an O(n·m) dynamic program.
	idx, err := traj2hash.NewIndex(m, ds.Database)
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	q := ds.Queries[0]
	exactStart := time.Now()
	exact := make([]float64, len(ds.Database))
	for i, t := range ds.Database {
		exact[i] = traj2hash.Distance(traj2hash.Frechet, q, t)
	}
	exactTime := time.Since(exactStart)
	approxStart := time.Now()
	top, status := idx.Do(ctx, traj2hash.Query{Traj: q, K: 10, Space: traj2hash.SpaceEuclidean})
	approxTime := time.Since(approxStart)
	if status.Err != nil {
		log.Fatal(status.Err)
	}
	fmt.Printf("ranking %d candidates: exact Frechet %v, embed+search %v (%.0fx faster)\n",
		len(ds.Database), exactTime.Round(time.Microsecond), approxTime.Round(time.Microsecond),
		float64(exactTime)/float64(approxTime))
	// Ordering agreement: the embedding's top match against exact ranks.
	bestExactRank := 0
	for i := range exact {
		if exact[i] < exact[top[0].ID] {
			bestExactRank++
		}
	}
	fmt.Printf("embedding's top match (id %d) sits at exact-Frechet rank %d\n",
		top[0].ID, bestExactRank)

	// 5. Top-k search in Hamming space (a Query's default), answered by
	//    the paper's hybrid lookup.
	for qi, query := range ds.Queries {
		res, status := idx.Do(ctx, traj2hash.Query{Traj: query, K: 5})
		if status.Err != nil {
			log.Fatal(status.Err)
		}
		ids := make([]int, len(res))
		for i, r := range res {
			ids[i] = r.ID
		}
		fmt.Printf("query %d: top-5 similar database trajectories %v\n", qi, ids)
	}
}
