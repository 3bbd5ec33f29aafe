// Package traj2hash's root benchmark suite regenerates every table and
// figure of the paper at the Tiny scale (one iteration ≈ seconds), plus
// micro-benchmarks of the hot paths: exact distance functions, embedding,
// hashing, and the three search strategies.
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// Regenerate one artifact (e.g. Table II):
//
//	go test -bench=BenchmarkTable2 -benchmem
//
// The tables print on the first iteration so a bench run doubles as a
// reproduction run; larger scales are available through cmd/traj2hash.
package traj2hash

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"testing"

	"traj2hash/internal/core"
	"traj2hash/internal/data"
	"traj2hash/internal/dist"
	"traj2hash/internal/engine"
	"traj2hash/internal/experiments"
	"traj2hash/internal/geo"
	"traj2hash/internal/hamming"
)

// benchExperiment runs a registry experiment once per iteration, printing
// the resulting table on the first.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	exp, err := experiments.Lookup(id)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		tbl, err := exp.Run(experiments.Tiny, io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			tbl.Fprint(os.Stdout)
		}
	}
}

func BenchmarkTable1_EuclideanAccuracy(b *testing.B) { benchExperiment(b, "table1") }
func BenchmarkTable2_HammingAccuracy(b *testing.B)   { benchExperiment(b, "table2") }
func BenchmarkTable3_Ablation(b *testing.B)          { benchExperiment(b, "table3") }
func BenchmarkFig4_ReadoutLayers(b *testing.B)       { benchExperiment(b, "fig4") }
func BenchmarkFig5_TimeVsDatabaseSize(b *testing.B)  { benchExperiment(b, "fig5") }
func BenchmarkFig6_TimeVsK(b *testing.B)             { benchExperiment(b, "fig6") }
func BenchmarkFig7_GridRepresentations(b *testing.B) { benchExperiment(b, "fig7") }
func BenchmarkFig8_AlphaSweep(b *testing.B)          { benchExperiment(b, "fig8") }
func BenchmarkFig9_GammaSweep(b *testing.B)          { benchExperiment(b, "fig9") }

// --- micro-benchmarks of the substrates ---

var (
	microOnce  sync.Once
	microTrajs []geo.Trajectory
	microModel *core.Model
)

func microSetup(b *testing.B) {
	b.Helper()
	microOnce.Do(func() {
		microTrajs = data.Porto().Generate(256, 1)
		cfg := core.DefaultConfig(16)
		cfg.Heads = 2
		cfg.Blocks = 1
		cfg.MaxLen = 16
		cfg.GridCellSize = 200
		cfg.GridPreEpochs = 1
		m, err := core.New(cfg, microTrajs)
		if err != nil {
			panic(err)
		}
		microModel = m
	})
}

func BenchmarkDistDTW(b *testing.B) {
	microSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dist.DTW(microTrajs[i%128], microTrajs[128+i%128])
	}
}

func BenchmarkDistFrechet(b *testing.B) {
	microSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dist.Frechet(microTrajs[i%128], microTrajs[128+i%128])
	}
}

func BenchmarkDistHausdorff(b *testing.B) {
	microSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dist.Hausdorff(microTrajs[i%128], microTrajs[128+i%128])
	}
}

func BenchmarkEmbed(b *testing.B) {
	microSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		microModel.Embed(microTrajs[i%256])
	}
}

func BenchmarkHashCode(b *testing.B) {
	microSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		microModel.Code(microTrajs[i%256])
	}
}

func benchSearchSetup(b *testing.B, n int) ([]hamming.Code, [][]float64, hamming.Code, []float64) {
	b.Helper()
	microSetup(b)
	trajs := data.Porto().Generate(n, 2)
	codes := make([]hamming.Code, n)
	embs := make([][]float64, n)
	for i, t := range trajs {
		embs[i] = microModel.Embed(t)
		codes[i] = hamming.FromSigns(embs[i])
	}
	q := microModel.Embed(microTrajs[0])
	return codes, embs, hamming.FromSigns(q), q
}

// benchBackend loads one engine strategy — the code every search consumer
// runs — over a store of the given items, each an embedding and its code,
// and returns its search.
func benchBackend(b *testing.B, name string, cfg engine.Config, embs [][]float64, codes []hamming.Code) func(engine.Query, int) []engine.Result {
	b.Helper()
	be, err := engine.NewBackend(name, cfg)
	if err != nil {
		b.Fatal(err)
	}
	st := engine.NewStore(cfg, be)
	for i, emb := range embs {
		if err := st.Add(emb, codes[i]); err != nil {
			b.Fatal(err)
		}
	}
	return func(q engine.Query, k int) []engine.Result { return be.Search(st, q, k) }
}

// benchSearch10k times top-50 search of one backend over 10k items.
func benchSearch10k(b *testing.B, name string, cfg engine.Config) {
	codes, embs, qc, q := benchSearchSetup(b, 10000)
	search := benchBackend(b, name, cfg, embs, codes)
	query := engine.Query{Emb: q, Code: qc}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		search(query, 50)
	}
}

func BenchmarkSearchEuclideanBF10k(b *testing.B) {
	benchSearch10k(b, engine.EuclideanBFName, engine.Config{})
}

func BenchmarkSearchHammingBF10k(b *testing.B) {
	benchSearch10k(b, engine.HammingBFName, engine.Config{})
}

func BenchmarkSearchHammingHybrid10k(b *testing.B) {
	benchSearch10k(b, engine.HammingHybridName, engine.Config{})
}

// BenchmarkSearchVPTree10k measures the exact Euclidean k-NN metric-tree
// extension (see internal/engine/vptree.go) against the linear scans above.
func BenchmarkSearchVPTree10k(b *testing.B) {
	_, embs, _, q := benchSearchSetup(b, 10000)
	tree, err := engine.NewVPTree(embs, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.Search(q, 50)
	}
}

// BenchmarkSearchHammingMIH10k measures the multi-index hashing extension
// (see internal/hamming/mih.go) on the same short-code workload as the
// three paper strategies above (four substrings). Short dense codes favor the hybrid's whole-
// code radius expansion; MIH's regime is long codes — see
// BenchmarkSearchLongCodes64.
func BenchmarkSearchHammingMIH10k(b *testing.B) {
	benchSearch10k(b, engine.MIHName, engine.Config{})
}

// BenchmarkSearchLongCodes64 compares the paper's strategies against MIH on
// 64-bit codes — the footnote-5 regime where whole-code radius-2 expansion
// probes C(64,2)+65 ≈ 2.1K buckets of a mostly empty table and the hybrid
// degenerates to a brute-force scan, while MIH probes four 16-bit tables.
// Codes are clustered (noisy copies of shared patterns) so neighborhoods
// are non-trivial, as trained trajectory codes are.
func BenchmarkSearchLongCodes64(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const n = 20000
	vecs := make([][]float64, n)
	codes := make([]hamming.Code, n)
	for i := range codes {
		v := make([]float64, 64)
		base := int64(i % 200) // 200 shared patterns
		prng := rand.New(rand.NewSource(base))
		for j := range v {
			v[j] = prng.NormFloat64()
			if rng.Float64() < 0.05 { // 5% bit noise
				v[j] = -v[j]
			}
		}
		vecs[i], codes[i] = v, hamming.FromSigns(v)
	}
	q := engine.Query{Code: codes[7]}
	for _, c := range []struct{ label, backend string }{
		{"HammingBF", engine.HammingBFName},
		{"HammingHybrid", engine.HammingHybridName},
		{"HammingMIH", engine.MIHName},
	} {
		search := benchBackend(b, c.backend, engine.Config{}, vecs, codes)
		b.Run(c.label, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				search(q, 50)
			}
		})
	}
}

// BenchmarkEngineSearchBatch measures batch-query throughput of the
// sharded query engine: the same 64-query batch answered sequentially
// (workers=1) versus fanned out across all cores (workers=GOMAXPROCS),
// over 1 and 4 shards. On a machine with ≥4 cores the parallel cases
// should approach a cores-fold speedup on the CPU-bound euclidean-bf
// scan; the Hamming backends are memory-light and scale similarly.
func BenchmarkEngineSearchBatch(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const (
		n   = 20000
		dim = 32
		nq  = 64
		k   = 50
	)
	vecs := make([][]float64, n)
	for i := range vecs {
		v := make([]float64, dim)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		vecs[i] = v
	}
	queries := make([]engine.Query, nq)
	for i := range queries {
		v := make([]float64, dim)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		queries[i] = engine.Query{Emb: v, Code: hamming.FromSigns(v)}
	}
	maxWorkers := runtime.GOMAXPROCS(0)
	for _, backend := range []string{engine.EuclideanBFName, engine.HammingHybridName} {
		for _, cfg := range []struct{ shards, workers int }{
			{1, 1}, {1, maxWorkers}, {4, maxWorkers},
		} {
			e, err := engine.New(engine.Options{
				Backends: []string{backend},
				Shards:   cfg.shards,
				Workers:  cfg.workers,
			})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := e.AddBatch(vecs, nil); err != nil {
				b.Fatal(err)
			}
			name := fmt.Sprintf("%s/shards=%d/workers=%d", backend, cfg.shards, cfg.workers)
			b.Run(name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, _, err := e.SearchBatchWithCtx(context.Background(), backend, queries, k); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkEngineShardFanout measures single-query latency as shards
// grow: the per-query fan-out turns one long scan into Shards shorter
// scans executed in parallel.
func BenchmarkEngineShardFanout(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	const n, dim = 20000, 32
	vecs := make([][]float64, n)
	for i := range vecs {
		v := make([]float64, dim)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		vecs[i] = v
	}
	qv := make([]float64, dim)
	for j := range qv {
		qv[j] = rng.NormFloat64()
	}
	q := engine.Query{Emb: qv, Code: hamming.FromSigns(qv)}
	for _, shards := range []int{1, 2, 4, 8} {
		e, err := engine.New(engine.Options{
			Backends: []string{engine.EuclideanBFName},
			Shards:   shards,
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := e.AddBatch(vecs, nil); err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e.Search(q, 50)
			}
		})
	}
}

func BenchmarkTripletGeneration(b *testing.B) {
	corpus := data.Porto().Generate(500, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trips := core.GenerateTriplets(corpus, 500, 200, int64(i))
		if len(trips) == 0 {
			b.Fatal("no triplets")
		}
	}
}

func BenchmarkTrainEpochTiny(b *testing.B) {
	seeds := data.Porto().Generate(24, 4)
	cfg := core.DefaultConfig(16)
	cfg.Heads = 2
	cfg.Blocks = 1
	cfg.MaxLen = 12
	cfg.M = 4
	cfg.Epochs = 1
	cfg.BatchSize = 8
	cfg.GridCellSize = 200
	cfg.GridPreEpochs = 1
	cfg.UseTriplets = false
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		m, err := core.New(cfg, seeds)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := m.Train(core.TrainData{Seeds: seeds, F: dist.FrechetDist}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExactVsApprox reports the headline speed gap motivating the
// paper: exact DTW versus one embedding-distance computation.
func BenchmarkExactVsApprox(b *testing.B) {
	microSetup(b)
	a, c := microTrajs[0], microTrajs[1]
	ea := microModel.Embed(a)
	ec := microModel.Embed(c)
	b.Run("ExactDTW", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dist.DTW(a, c)
		}
	})
	b.Run("EmbeddingDistance", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var sum float64
			for j := range ea {
				d := ea[j] - ec[j]
				sum += d * d
			}
			_ = sum
		}
	})
}
