package core

import (
	"math/rand"
	"sort"

	"traj2hash/internal/geo"
	"traj2hash/internal/grid"
)

// Triplet indexes an (anchor, positive, negative) trajectory triple into a
// corpus slice.
type Triplet struct {
	Anchor, Positive, Negative int
}

// GenerateTriplets implements the fast triplet generation of Section IV-F:
// corpus trajectories are mapped to coarse grid trajectories (500 m cells
// by default), trajectories sharing the same compressed grid sequence form
// a cluster, and triplets draw (anchor, positive) from one cluster and the
// negative from outside it. Trajectories inside a cluster are within the
// grid size of one another under the Fréchet distance, so no exact distance
// computation is needed.
//
// It returns up to n triplets; fewer when the corpus yields too few
// multi-member clusters.
func GenerateTriplets(corpus []geo.Trajectory, cellSize float64, n int, seed int64) []Triplet {
	if len(corpus) < 3 || n <= 0 {
		return nil
	}
	g, err := grid.FromTrajectories(corpus, cellSize)
	if err != nil {
		return nil
	}
	clusters := map[string][]int{}
	for i, t := range corpus {
		key := grid.KeyOf(g.CompressedGridTrajectory(t))
		clusters[key] = append(clusters[key], i)
	}
	// Collect clusters with at least two members, ordered by their first
	// member so generation is deterministic despite map iteration order.
	var multi [][]int
	inCluster := make(map[int]string, len(corpus))
	for key, ids := range clusters {
		for _, id := range ids {
			inCluster[id] = key
		}
		if len(ids) >= 2 {
			multi = append(multi, ids)
		}
	}
	sort.Slice(multi, func(i, j int) bool { return multi[i][0] < multi[j][0] })
	if len(multi) == 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]Triplet, 0, n)
	for len(out) < n {
		c := multi[rng.Intn(len(multi))]
		a := c[rng.Intn(len(c))]
		p := c[rng.Intn(len(c))]
		for tries := 0; p == a && tries < 8; tries++ {
			p = c[rng.Intn(len(c))]
		}
		if p == a {
			continue
		}
		// Negative: any corpus trajectory outside the anchor's cluster.
		neg := rng.Intn(len(corpus))
		ok := false
		for tries := 0; tries < 16; tries++ {
			if inCluster[neg] != inCluster[a] {
				ok = true
				break
			}
			neg = rng.Intn(len(corpus))
		}
		if !ok {
			// Corpus degenerate (nearly one cluster): give up gracefully.
			return out
		}
		out = append(out, Triplet{Anchor: a, Positive: p, Negative: neg})
	}
	return out
}
