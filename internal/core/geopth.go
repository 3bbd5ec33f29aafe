package core

import (
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"

	"traj2hash/internal/dist"
	"traj2hash/internal/geo"
	"traj2hash/internal/grid"
	"traj2hash/internal/hamming"
)

// GeoPTH is a training-free geometric prototype hasher in the spirit of
// the GeoPTH related work (PAPERS.md): instead of learning an embedding,
// it picks representative prototype trajectories spread across the study
// space and encodes a trajectory by which prototype of each pair it lies
// closer to. Bit i of the code is the sign of
//
//	d(t, B_i) − d(t, A_i)
//
// for the i-th prototype pair (A_i, B_i) — a geometric analogue of
// random-hyperplane hashing where the "hyperplane" is the perpendicular
// bisector of two real trajectories under the exact trajectory distance.
// The embedding is the vector of these (normalized) signed gaps, so
// Code(t) = sign(Embed(t)) holds by construction and Euclidean search
// over the embeddings remains meaningful.
//
// Because there is no training loop at all, a GeoPTH index is ready the
// moment the prototypes are chosen — the instant-index property that
// makes it the natural encoder for streaming scenarios (ROADMAP).
// GeoPTH deliberately does not implement Trainable.
type GeoPTH struct {
	// Cfg records the configuration the hasher was built with; only
	// HashBits, MaxLen, TripletCellSize, and Seed are consulted.
	Cfg Config

	protoA []geo.Trajectory // first prototype of each pair, resampled
	protoB []geo.Trajectory // second prototype of each pair, resampled
	scale  float64          // 1 / mean prototype gap, normalizing Embed
}

// geopthDist is the exact trajectory distance the hasher measures
// proximity with. Hausdorff is the cheapest of the paper's measures and
// is symmetric, which is all the bisector construction needs.
const geopthDist = dist.HausdorffDist

// NewGeoPTH builds the prototype hasher on a study space: Config.HashBits
// prototype pairs are drawn — deterministically from Config.Seed — with a
// region-spread heuristic (round-robin over the coarse grid cells of
// Config.TripletCellSize that the trajectories start in) so the pairs cut
// the space along diverse directions. Prototypes are resampled to
// Config.MaxLen points to bound the per-bit distance cost.
func NewGeoPTH(cfg Config, space []geo.Trajectory) (*GeoPTH, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	candidates := prototypeOrder(cfg, space)
	if len(candidates) < 2 {
		return nil, fmt.Errorf("core: geopth needs at least 2 non-empty trajectories to pick prototypes from, got %d", len(candidates))
	}
	g := &GeoPTH{Cfg: cfg}
	bits := cfg.HashBits
	g.protoA = make([]geo.Trajectory, bits)
	g.protoB = make([]geo.Trajectory, bits)
	var gapSum float64
	for i := 0; i < bits; i++ {
		a := candidates[(2*i)%len(candidates)]
		b := candidates[(2*i+1)%len(candidates)]
		if &a[0] == &b[0] { // wrapped onto the same trajectory
			b = candidates[(2*i+2)%len(candidates)]
		}
		g.protoA[i] = boundLen(a, cfg.MaxLen)
		g.protoB[i] = boundLen(b, cfg.MaxLen)
		gapSum += dist.Distance(geopthDist, g.protoA[i], g.protoB[i])
	}
	mean := gapSum / float64(bits)
	if mean > 0 {
		g.scale = 1 / mean
	} else {
		g.scale = 1
	}
	return g, nil
}

// prototypeOrder produces the deterministic, diversity-first candidate
// ordering: trajectories are bucketed by the coarse grid cell of their
// first point, buckets are shuffled from Config.Seed, and candidates are
// taken round-robin across buckets so consecutive picks come from
// different regions of the study space.
func prototypeOrder(cfg Config, space []geo.Trajectory) []geo.Trajectory {
	nonEmpty := make([]geo.Trajectory, 0, len(space))
	for _, t := range space {
		if len(t) > 0 {
			nonEmpty = append(nonEmpty, t)
		}
	}
	if len(nonEmpty) == 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	cg, err := grid.FromTrajectories(nonEmpty, cfg.TripletCellSize)
	if err != nil {
		// Degenerate spaces fall back to a plain shuffle.
		out := append([]geo.Trajectory(nil), nonEmpty...)
		rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out
	}
	buckets := map[int][]geo.Trajectory{}
	for _, t := range nonEmpty {
		id := cg.ID(t[0])
		buckets[id] = append(buckets[id], t)
	}
	ids := make([]int, 0, len(buckets))
	for id := range buckets {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	for _, id := range ids {
		rng.Shuffle(len(buckets[id]), func(i, j int) {
			buckets[id][i], buckets[id][j] = buckets[id][j], buckets[id][i]
		})
	}
	out := make([]geo.Trajectory, 0, len(nonEmpty))
	for round := 0; len(out) < len(nonEmpty); round++ {
		for _, id := range ids {
			if round < len(buckets[id]) {
				out = append(out, buckets[id][round])
			}
		}
	}
	return out
}

// boundLen resamples a trajectory to at most maxLen points.
func boundLen(t geo.Trajectory, maxLen int) geo.Trajectory {
	if len(t) > maxLen {
		return t.Resample(maxLen)
	}
	return t
}

// Kind returns the encoder kind name.
func (g *GeoPTH) Kind() string { return GeoPTHKind }

// Dim returns the embedding width (= Config.HashBits, one prototype pair
// per bit).
func (g *GeoPTH) Dim() int { return g.Cfg.HashBits }

// Embed returns the normalized signed prototype gaps of t: coordinate i
// is (d(t, B_i) − d(t, A_i)) · scale, positive when t lies closer to A_i.
func (g *GeoPTH) Embed(t geo.Trajectory) []float64 {
	out := make([]float64, len(g.protoA))
	g.embedInto(t, out)
	return out
}

// embedInto writes Embed(t) into dst, which has Dim coordinates.
func (g *GeoPTH) embedInto(t geo.Trajectory, dst []float64) {
	tb := boundLen(t, g.Cfg.MaxLen)
	for i := range g.protoA {
		da := dist.Distance(geopthDist, tb, g.protoA[i])
		db := dist.Distance(geopthDist, tb, g.protoB[i])
		dst[i] = (db - da) * g.scale
	}
}

// EmbedAll embeds a batch sequentially.
func (g *GeoPTH) EmbedAll(ts []geo.Trajectory) [][]float64 {
	return embedAllParallel(ts, g.Dim(), 1, g.embedWorker)
}

// EmbedAllParallel embeds a batch across worker goroutines; the hasher is
// immutable after construction, so concurrent Embeds are always safe.
func (g *GeoPTH) EmbedAllParallel(ts []geo.Trajectory, workers int) [][]float64 {
	return embedAllParallel(ts, g.Dim(), workers, g.embedWorker)
}

// embedWorker is the hasher's embedAllParallel worker; it keeps no state.
func (g *GeoPTH) embedWorker() embedInto { return g.embedInto }

// Code returns the Hamming-space code sign(Embed(t)).
func (g *GeoPTH) Code(t geo.Trajectory) hamming.Code { return hamming.FromSigns(g.Embed(t)) }

// CodeAll hashes a batch of trajectories.
func (g *GeoPTH) CodeAll(ts []geo.Trajectory) []hamming.Code { return codeAll(g, ts) }

// geopthBlob is the gob wire format of a built hasher.
type geopthBlob struct {
	Cfg    Config
	ProtoA []geo.Trajectory
	ProtoB []geo.Trajectory
	Scale  float64
}

// Save writes the hasher (prototypes and normalization) to w.
func (g *GeoPTH) Save(w io.Writer) error {
	blob := geopthBlob{Cfg: g.Cfg, ProtoA: g.protoA, ProtoB: g.protoB, Scale: g.scale}
	if err := gob.NewEncoder(w).Encode(blob); err != nil {
		return fmt.Errorf("core: geopth save: %w", err)
	}
	return nil
}

// loadGeoPTH reads a hasher written by Save.
func loadGeoPTH(r io.Reader) (*GeoPTH, error) {
	var blob geopthBlob
	if err := gob.NewDecoder(r).Decode(&blob); err != nil {
		return nil, fmt.Errorf("core: geopth load: %w", err)
	}
	if len(blob.ProtoA) != blob.Cfg.HashBits || len(blob.ProtoB) != blob.Cfg.HashBits {
		return nil, fmt.Errorf("core: geopth load: %d/%d prototypes for %d bits",
			len(blob.ProtoA), len(blob.ProtoB), blob.Cfg.HashBits)
	}
	// A hasher with any of these would load and then embed NaN silently.
	for i := range blob.ProtoA {
		for _, proto := range []geo.Trajectory{blob.ProtoA[i], blob.ProtoB[i]} {
			if len(proto) == 0 {
				return nil, fmt.Errorf("core: geopth load: prototype pair %d has an empty trajectory", i)
			}
			for _, p := range proto {
				if !p.IsFinite() {
					return nil, fmt.Errorf("core: geopth load: prototype pair %d has a non-finite point", i)
				}
			}
		}
	}
	if !(blob.Scale > 0) || math.IsInf(blob.Scale, 1) { // also catches NaN
		return nil, fmt.Errorf("core: geopth load: scale %v is not a positive finite number", blob.Scale)
	}
	return &GeoPTH{Cfg: blob.Cfg, protoA: blob.ProtoA, protoB: blob.ProtoB, scale: blob.Scale}, nil
}
