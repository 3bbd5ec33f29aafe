// clustering: gathering-pattern discovery — the motivation from Zheng et
// al. [13] in the paper's introduction. Hash codes bucket a trajectory
// corpus so that co-moving objects (taxis repeatedly running the same
// popular route) land together; the largest Hamming-radius-1 groups are
// the "gatherings". Uses only the library's public API.
//
//	go run ./examples/clustering
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	"traj2hash"
)

func main() {
	ds := traj2hash.BuildDataset(traj2hash.ChengDu(), traj2hash.SplitSpec{
		Seed: 40, Validation: 30, Corpus: 150, Queries: 1, Database: 600,
	}, 21)

	cfg := traj2hash.DefaultConfig(32)
	cfg.MaxLen = 20
	cfg.M = 6
	cfg.Epochs = 8
	cfg.BatchSize = 10
	m, err := traj2hash.New(cfg, ds.All())
	if err != nil {
		log.Fatal(err)
	}
	if _, err := m.Train(traj2hash.TrainData{
		Seeds: ds.Seeds, Validation: ds.Validation, Corpus: ds.Corpus,
		F: traj2hash.Hausdorff,
	}); err != nil {
		log.Fatal(err)
	}

	corpus := ds.Database
	idx, err := traj2hash.NewIndex(m, corpus)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d trajectories indexed (%d-bit codes)\n", idx.Len(), cfg.HashBits)

	ctx := context.Background()
	// Greedy clustering: repeatedly take the unassigned trajectory with the
	// largest radius-1 neighborhood as a cluster center.
	assigned := make([]bool, len(corpus))
	type cluster struct {
		center  int
		members []int
	}
	var clusters []cluster
	for {
		best := -1
		var bestMembers []int
		for i := range corpus {
			if assigned[i] {
				continue
			}
			var members []int
			near, status := idx.WithinCtx(ctx, corpus[i], 1)
			if status.Err != nil {
				log.Fatal(status.Err)
			}
			for _, id := range near {
				if !assigned[id] {
					members = append(members, id)
				}
			}
			if len(members) > len(bestMembers) {
				best = i
				bestMembers = members
			}
		}
		if best < 0 || len(bestMembers) < 3 {
			break
		}
		for _, id := range bestMembers {
			assigned[id] = true
		}
		sort.Ints(bestMembers)
		clusters = append(clusters, cluster{center: best, members: bestMembers})
		if len(clusters) >= 8 {
			break
		}
	}

	fmt.Printf("\ntop gathering patterns (Hamming radius-1 groups):\n")
	for i, c := range clusters {
		ctr := corpus[c.center].Centroid()
		fmt.Printf("  gathering %d: %3d trajectories near (%.0f, %.0f) m, e.g. ids %v\n",
			i+1, len(c.members), ctr.X, ctr.Y, c.members[:min(5, len(c.members))])
	}
	var covered int
	for _, a := range assigned {
		if a {
			covered++
		}
	}
	fmt.Printf("\n%d/%d trajectories fall into a gathering pattern\n", covered, len(corpus))
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
