// linking: trajectory-based entity linking — the criminal-investigation
// motivation from the paper's introduction (Jin et al. [14]): decide which
// objects in two separately collected datasets are the same moving object,
// by matching their movement traces. Uses only the library's public API.
//
// Two observation datasets are simulated from the same ground-truth trips
// (different GPS noise and sampling, as two sensor networks would produce).
// The model links each trace in dataset A to its most similar trace in
// dataset B via Hamming-space search, and we measure how often the link is
// the true identity.
//
//	go run ./examples/linking
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"traj2hash"
)

const numEntities = 60

// observe re-samples and perturbs a ground-truth trip the way an
// independent sensor network would: different point count, offset, noise.
func observe(t traj2hash.Trajectory, noise float64, rng *rand.Rand) traj2hash.Trajectory {
	n := len(t)/2 + rng.Intn(len(t)/2+1) + 2
	o := t.Resample(n)
	for i := range o {
		o[i] = o[i].Add(traj2hash.Point{X: rng.NormFloat64() * noise, Y: rng.NormFloat64() * noise})
	}
	return o
}

func main() {
	city := traj2hash.Porto()
	truth := city.Generate(numEntities, 11)
	rng := rand.New(rand.NewSource(12))

	// Two independent observations of the same entities.
	datasetA := make([]traj2hash.Trajectory, numEntities)
	datasetB := make([]traj2hash.Trajectory, numEntities)
	for i, t := range truth {
		datasetA[i] = observe(t, 8, rng)
		datasetB[i] = observe(t, 12, rng)
	}

	// Train on separate background traffic (the investigator does not have
	// labelled identity pairs — the model only learns the distance).
	ds := traj2hash.BuildDataset(city, traj2hash.SplitSpec{
		Seed: 40, Validation: 30, Corpus: 150, Queries: 1, Database: 1,
	}, 13)
	cfg := traj2hash.DefaultConfig(32)
	cfg.MaxLen = 20
	cfg.M = 6
	cfg.Epochs = 8
	cfg.BatchSize = 10
	m, err := traj2hash.New(cfg, append(ds.All(), truth...))
	if err != nil {
		log.Fatal(err)
	}
	if _, err := m.Train(traj2hash.TrainData{
		Seeds: ds.Seeds, Validation: ds.Validation, Corpus: ds.Corpus,
		F: traj2hash.Frechet,
	}); err != nil {
		log.Fatal(err)
	}

	// Link: for each trace in A, the nearest traces in B by Hamming code.
	idx, err := traj2hash.NewIndex(m, datasetB)
	if err != nil {
		log.Fatal(err)
	}
	// Embed each query trace once, then both search and score the link
	// from that embedding: Query.Vec + ApproxDistanceByVec share one
	// encoder forward pass per iteration (Query.Traj would run a second).
	ctx := context.Background()
	var top1, top5 int
	var linkDist float64
	for i := 0; i < numEntities; i++ {
		qe := m.Embed(datasetA[i])
		res, status := idx.Do(ctx, traj2hash.Query{Vec: qe, K: 5})
		if status.Err != nil {
			log.Fatal(status.Err)
		}
		if len(res) > 0 && res[0].ID == i {
			top1++
		}
		for _, r := range res {
			if r.ID == i {
				top5++
				break
			}
		}
		if len(res) > 0 {
			linkDist += idx.ApproxDistanceByVec(qe, res[0].ID)
		}
	}
	fmt.Printf("entity linking over %d objects across two sensor networks:\n", numEntities)
	fmt.Printf("  correct at rank 1: %d/%d (%.0f%%)\n", top1, numEntities, 100*float64(top1)/numEntities)
	fmt.Printf("  correct in top 5:  %d/%d (%.0f%%)\n", top5, numEntities, 100*float64(top5)/numEntities)
	fmt.Printf("  mean learned distance of rank-1 links: %.2f\n", linkDist/numEntities)
}
