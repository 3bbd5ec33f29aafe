package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"runtime"
	"time"

	"traj2hash"
	"traj2hash/internal/core"
	"traj2hash/internal/data"
	"traj2hash/internal/dist"
)

// scale fixes every size of a run. `full` is the reference the numbers in
// BENCHMARK.json are taken at; `smoke` keeps every code path but at toy
// sizes, for the tier-1 test.
type scale struct {
	name string

	dim, maxLen, blocks, heads int // encoder shape (paper: 64 / 48 / 2 / 4)

	trainSeeds, trainVal, trainCorpus int // supervision for the fixed training run
	trainBatch, trainTripletBatch     int // → 2 seed steps + 2 triplet steps per epoch

	attentionDB   int // trips ingested on query_attention
	attentionPool int // held-out query trajectories
	truthQueries  int // queries scored against exact Fréchet top-10
	scanDB        int // trips ingested on scan_100k
	scanPool      int // pre-embedded queries
	scanMaxLen    int // points GeoPTH resamples to on scan_100k and the 100K layer fixture
	serveDB       int // trips ingested on serve_mixed
	servePool     int // query pool the Zipf draw ranges over
	writeBulk     int // trips bulk-ingested on write_path
	mutatePool    int // distinct trips mutations cycle through
	diskAt        int // mutations after which write_path sizes its WAL directory
	oracleQueries int // queries checked against the naive oracles
	fixtureN      int // items behind the *_100k_* layer metrics
	suiteDB       int // trips in the layer suite's durable GeoPTH index
}

var scales = map[string]scale{
	"full": {
		name: "full",
		dim:  64, maxLen: 48, blocks: 2, heads: 4,
		trainSeeds: 12, trainVal: 12, trainCorpus: 200,
		trainBatch: 6, trainTripletBatch: 8,
		attentionDB: 512, attentionPool: 256, truthQueries: 50,
		scanDB: 100000, scanPool: 5000, scanMaxLen: 6,
		serveDB: 5000, servePool: 500,
		writeBulk: 256, mutatePool: 4096, diskAt: 1500,
		oracleQueries: 50,
		fixtureN:      100000,
		suiteDB:       1000,
	},
	"smoke": {
		name: "smoke",
		dim:  16, maxLen: 16, blocks: 1, heads: 2,
		trainSeeds: 12, trainVal: 11, trainCorpus: 60,
		trainBatch: 6, trainTripletBatch: 8,
		attentionDB: 96, attentionPool: 32, truthQueries: 16,
		scanDB: 2000, scanPool: 64, scanMaxLen: 6,
		serveDB: 200, servePool: 64,
		writeBulk: 64, mutatePool: 256, diskAt: 40,
		oracleQueries: 16,
		fixtureN:      2000,
		suiteDB:       128,
	},
}

// ingestChunk is the AddBatchCtx batch size of every bulk ingest. It is a
// constant, not a tunable: EmbedAllParallel keeps every tape of a batch
// alive until the batch returns, and an unchunked 5 000-trip call at
// d = 64 was OOM-killed at 16 GB (benchmarks/README.md, first finding).
const ingestChunk = 64

// topK is the k of every search the benchmark issues.
const topK = 10

// env is what a workload needs from the command line.
type env struct {
	sc      scale
	seed    int64
	seconds float64
	workers int       // load goroutines / connections == Shards == Workers
	dir     string    // scratch directory (WAL dirs live below it)
	log     io.Writer // progress, never the result
}

// loadWorkers is the benchmark's parallelism: two, unless the machine has
// fewer processors — the issue's "at most nproc (2 here)".
func loadWorkers() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

func (e env) window() time.Duration { return time.Duration(e.seconds * float64(time.Second)) }

// warmup is the head of a timed loop of length dur that is thrown away
// (heap growth, page-in, connection set-up): 3 s, or 15 % of a loop too
// short for that.
func warmup(dur time.Duration) time.Duration {
	return min(3*time.Second, dur*15/100)
}

// indexOptions are the facade options shared by every workload: shards
// and workers equal to the load parallelism, nothing instrumented.
func (e env) indexOptions() traj2hash.Options {
	return traj2hash.Options{Shards: e.workers, Workers: e.workers}
}

// trips draws n Porto-like trips from a sub-stream of the run's seed, so
// every input set of a run is distinct yet a pure function of --seed.
func (e env) trips(stream int64, n int) []traj2hash.Trajectory {
	return data.Porto().Generate(n, e.seed*1000+stream)
}

// checksum folds trajectories into the input checksum the smoke test
// compares across seeds.
func checksum(h io.Writer, ts []traj2hash.Trajectory) {
	var b [16]byte
	for _, t := range ts {
		for _, p := range t {
			binary.LittleEndian.PutUint64(b[:8], math.Float64bits(p.X))
			binary.LittleEndian.PutUint64(b[8:], math.Float64bits(p.Y))
			//lint:ignore errcheck hash.Hash.Write never returns an error
			h.Write(b[:])
		}
	}
}

func checksumOf(sets ...[]traj2hash.Trajectory) string {
	h := fnv.New64a()
	for _, s := range sets {
		checksum(h, s)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// ingest adds ts to ix through AddBatchCtx in chunks of ingestChunk.
func ingest(ctx context.Context, ix *traj2hash.Index, ts []traj2hash.Trajectory) error {
	for lo := 0; lo < len(ts); lo += ingestChunk {
		hi := lo + ingestChunk
		if hi > len(ts) {
			hi = len(ts)
		}
		if _, err := ix.AddBatchCtx(ctx, ts[lo:hi]); err != nil {
			return fmt.Errorf("ingest [%d,%d): %w", lo, hi, err)
		}
	}
	return nil
}

// ---- encoders ----

func (e env) encoderConfig() core.Config {
	cfg := core.DefaultConfig(e.sc.dim)
	cfg.MaxLen = e.sc.maxLen
	cfg.Blocks = e.sc.blocks
	cfg.Heads = e.sc.heads
	cfg.GridPreEpochs = 1
	cfg.Epochs = 1
	cfg.BatchSize = e.sc.trainBatch
	cfg.TripletBatch = e.sc.trainTripletBatch
	cfg.NumTriplets = 200
	cfg.Seed = e.seed
	return cfg
}

// trained is an attention encoder after the fixed training run, with the
// wall time of each optimizer step and of the whole run.
type trained struct {
	enc   *core.Model
	steps []time.Duration
	took  time.Duration
}

// trainAttention builds the paper-shaped attention encoder and runs the
// fixed training schedule: one epoch of ⌈seeds/batch⌉ seed batches plus
// the two triplet batches trainLoop always adds, under Fréchet
// supervision. Training is short on purpose — it is there so the codes are
// not those of a random initialisation and so the taped (autograd) path
// is part of set-up, not to reach the paper's accuracy.
func (e env) trainAttention(ctx context.Context, space []traj2hash.Trajectory) (*trained, error) {
	sc := e.sc
	need := sc.trainSeeds + sc.trainVal + sc.trainCorpus
	if len(space) < need {
		return nil, fmt.Errorf("train: need %d trips, have %d", need, len(space))
	}
	enc, err := core.New(e.encoderConfig(), space)
	if err != nil {
		return nil, fmt.Errorf("train: building encoder: %w", err)
	}
	tr := &trained{enc: enc}
	begin := time.Now()
	last := begin
	_, err = enc.TrainCtx(ctx, core.TrainData{
		Seeds:      space[:sc.trainSeeds],
		Validation: space[sc.trainSeeds : sc.trainSeeds+sc.trainVal],
		Corpus:     space[sc.trainSeeds+sc.trainVal : need],
		F:          dist.FrechetDist,
		StepHook: func(_, _ int) {
			now := time.Now()
			tr.steps = append(tr.steps, now.Sub(last))
			last = now
		},
	})
	if err != nil {
		return nil, fmt.Errorf("train: %w", err)
	}
	if len(tr.steps) == 0 {
		return nil, fmt.Errorf("train: no optimizer step ran")
	}
	tr.took = time.Since(begin)
	return tr, nil
}

// geopth builds the training-free hasher over space; its prototypes are
// resampled to maxLen points.
func (e env) geopth(space []traj2hash.Trajectory, maxLen int) (*core.GeoPTH, error) {
	cfg := e.encoderConfig()
	cfg.MaxLen = maxLen
	g, err := core.NewGeoPTH(cfg, space)
	if err != nil {
		return nil, fmt.Errorf("building GeoPTH: %w", err)
	}
	return g, nil
}

// hasherSeed draws the study space scanHasher takes its prototypes from.
const hasherSeed = 1

// scanHasher is the encoder of scan_100k and of the 100K layer fixture:
// GeoPTH at d = 64, with two settings of its own.
//
// Its prototypes are resampled to scanMaxLen points instead of 48. An
// embed is 128 Hausdorff distances: 0.72 ms at 48 points (35 s per 100K
// trips on two cores, as long as a whole run may take) and 0.03 ms at 6
// (2 s). The codes barely change: over four seeds a trip's code at 6
// points differs from its code at 48 in 0.8–1.2 of 64 bits, and at 20 000
// trips the share of hybrid searches the table lookup answers agrees
// within 0.011 (benchmarks/README.md has the table).
//
// Its prototypes come from a fixed study space, not from the run's seed:
// they are the model, and a run varies the trips and the queries, not the
// model. Which prototypes are drawn decides how evenly the codes fill the
// buckets, and with it what a hybrid search costs: drawn per seed, the
// table-lookup share ranged over 0.856–0.911 across six seeds and the
// median search over 140–175 µs; with these it stays within 0.858–0.875
// over ten.
// Nothing timed on those paths runs the encoder.
func (e env) scanHasher() (*core.GeoPTH, error) {
	cfg := e.encoderConfig()
	cfg.MaxLen = e.sc.scanMaxLen
	cfg.Seed = hasherSeed
	g, err := core.NewGeoPTH(cfg, data.Porto().Generate(10000, hasherSeed))
	if err != nil {
		return nil, fmt.Errorf("building GeoPTH: %w", err)
	}
	return g, nil
}
