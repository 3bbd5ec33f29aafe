// knnsearch: the paper's headline use case end to end — approximate top-k
// similar trajectory search over a database, comparing its two retrieval
// spaces (Euclidean over embeddings, Table I; Hamming over codes, Table
// II, answered by the Section V-E hybrid) on both speed and accuracy
// against exact DTW ground truth. Uses only the library's public API.
//
//	go run ./examples/knnsearch
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"traj2hash"
)

const k = 10

func main() {
	ds := traj2hash.BuildDataset(traj2hash.ChengDu(), traj2hash.SplitSpec{
		Seed: 40, Validation: 30, Corpus: 200, Queries: 20, Database: 2000,
	}, 7)

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
		F: traj2hash.DTW,
	}); err != nil {
		log.Fatal(err)
	}

	// Exact ground truth (this is the expensive part the model avoids).
	gtStart := time.Now()
	truth := traj2hash.GroundTruth(traj2hash.DTW, ds.Queries, ds.Database, k)
	gtTime := time.Since(gtStart)
	fmt.Printf("exact DTW ground truth for %d queries x %d database: %v (%v/query)\n",
		len(ds.Queries), len(ds.Database), gtTime.Round(time.Millisecond),
		(gtTime / time.Duration(len(ds.Queries))).Round(time.Microsecond))

	idx, err := traj2hash.NewIndex(m, ds.Database)
	if err != nil {
		log.Fatal(err)
	}

	// Encode the queries once — a fixed per-query cost shared by all
	// strategies — then time search alone.
	encStart := time.Now()
	qVecs := make([][]float64, len(ds.Queries))
	qCodes := make([]traj2hash.Code, len(ds.Queries))
	for i, q := range ds.Queries {
		qVecs[i] = m.Embed(q)
		qCodes[i] = m.Code(q)
	}
	encPer := time.Since(encStart) / time.Duration(2*len(ds.Queries))
	fmt.Printf("query encoding: %v/query (one-time, shared by both spaces)\n",
		encPer.Round(time.Microsecond))

	// Each space ranks the representation it reads: the embedding in
	// Euclidean space, the code in Hamming space.
	spaces := []struct {
		name  string
		space traj2hash.Space
	}{
		{"Euclidean", traj2hash.SpaceEuclidean},
		{"Hamming", traj2hash.SpaceHamming},
	}
	ctx := context.Background()

	fmt.Printf("\n%-16s %12s %10s\n", "space", "per query", "HR@10")
	for _, s := range spaces {
		start := time.Now()
		returned := make([][]int, len(ds.Queries))
		for qi := range ds.Queries {
			query := traj2hash.Query{Vec: qVecs[qi], K: k, Space: s.space}
			if s.space == traj2hash.SpaceHamming {
				query = traj2hash.Query{Code: qCodes[qi], K: k}
			}
			res, status := idx.Do(ctx, query)
			if status.Err != nil {
				log.Fatal(status.Err)
			}
			ids := make([]int, len(res))
			for i, r := range res {
				ids[i] = r.ID
			}
			returned[qi] = ids
		}
		per := time.Since(start) / time.Duration(len(ds.Queries))
		metrics := traj2hash.Evaluate(returned, truth)
		fmt.Printf("%-16s %12v %10.3f\n", s.name, per.Round(time.Microsecond), metrics.HR10)
	}

	// Learned distance estimates for the top hits. ApproxDistanceByVec
	// reuses the query embeddings computed once above, so the loop costs
	// no encoder forward pass.
	var meanTop, meanTen float64
	for qi := range ds.Queries {
		hits := idx.SearchEuclideanByVec(qVecs[qi], k)
		meanTop += idx.ApproxDistanceByVec(qVecs[qi], hits[0].ID)
		meanTen += idx.ApproxDistanceByVec(qVecs[qi], hits[len(hits)-1].ID)
	}
	nq := float64(len(ds.Queries))
	fmt.Printf("\nlearned distance estimates: top-1 %.2f, top-%d %.2f (mean over %d queries)\n",
		meanTop/nq, k, meanTen/nq, len(ds.Queries))
}
