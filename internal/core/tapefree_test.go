package core

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"traj2hash/internal/geo"
)

// paperShapeConfig is the attention encoder at the paper's dimensions
// (d = 64, 2 blocks, 4 heads) with the benchmark's MaxLen of 48 — the
// shape the embed cost is budgeted at, unlike tinyConfig.
func paperShapeConfig() Config {
	cfg := DefaultConfig(64)
	cfg.MaxLen = 48
	cfg.GridPreEpochs = 1
	return cfg
}

// lengthProbes returns trajectories of exactly the given lengths, cut
// from (or resampled out of) generated trips.
func lengthProbes(tb testing.TB, space []geo.Trajectory, lengths ...int) []geo.Trajectory {
	tb.Helper()
	out := make([]geo.Trajectory, len(lengths))
	for i, n := range lengths {
		out[i] = space[i%len(space)].Resample(n)
		if len(out[i]) != n {
			tb.Fatalf("probe %d has %d points, want %d", i, len(out[i]), n)
		}
	}
	return out
}

// assertTapeFreeParity holds every tape-free entry point of a trainable
// encoder to math.Float64bits equality with its taped forward pass.
func assertTapeFreeParity(t *testing.T, m interface {
	Encoder
	Net
}, probes []geo.Trajectory) {
	t.Helper()
	all := m.EmbedAll(probes) // one Scratch reused across items: stale storage must not leak
	par := m.EmbedAllParallel(probes, 3)
	for i, p := range probes {
		want := m.Forward(nil, p).Data
		for name, got := range map[string][]float64{
			"Embed": m.Embed(p), "EmbedAll": all[i], "EmbedAllParallel": par[i],
		} {
			if len(got) != len(want) {
				t.Fatalf("%s len(t)=%d: %d dims, taped %d", name, len(p), len(got), len(want))
			}
			for j := range want {
				if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
					t.Fatalf("%s len(t)=%d dim %d: tape-free %v, taped %v", name, len(p), j, got[j], want[j])
				}
			}
		}
	}
}

// TestTapeFreeEmbedBitwiseEqualsTapedForward is the exactness contract of
// the serving path, beside TestV1CheckpointBitwiseResume for training:
// Embed and friends run the same forward as training, tape-free, and must
// return the very bits the taped pass returns — for every read-out, with and
// without the grid channel and the reverse augmentation, for one and two
// blocks, and for lengths 2, 10, MaxLen and beyond MaxLen.
func TestTapeFreeEmbedBitwiseEqualsTapedForward(t *testing.T) {
	space := genTrajs(12, 61)
	for _, readout := range []Readout{LowerBound, Mean, CLS} {
		for _, grids := range []bool{true, false} {
			for _, rev := range []bool{true, false} {
				for _, blocks := range []int{1, 2} {
					cfg := tinyConfig()
					cfg.Readout, cfg.UseGrids, cfg.UseRevAug, cfg.Blocks = readout, grids, rev, blocks
					name := fmt.Sprintf("readout=%v/grids=%v/rev=%v/blocks=%d", readout, grids, rev, blocks)
					t.Run(name, func(t *testing.T) {
						m, err := New(cfg, space)
						if err != nil {
							t.Fatal(err)
						}
						assertTapeFreeParity(t, m, lengthProbes(t, space, 2, 10, cfg.MaxLen, 3*cfg.MaxLen))
					})
				}
			}
		}
	}
	t.Run("cnn", func(t *testing.T) {
		c, err := NewCNN(tinyConfig(), space)
		if err != nil {
			t.Fatal(err)
		}
		assertTapeFreeParity(t, c, lengthProbes(t, space, 2, 10, 12, 36))
	})
}

// TestHotpathEmbedNoTape budgets one attention Embed at the paper shape:
// with the tape gone it is a handful of scratch chunks, not a graph
// (1 146 allocations and 3.1 MB per call before the tape-free mode).
func TestHotpathEmbedNoTape(t *testing.T) {
	cfg := paperShapeConfig()
	space := genTrajs(8, 62)
	m, err := New(cfg, space)
	if err != nil {
		t.Fatal(err)
	}
	q := lengthProbes(t, space, 2*cfg.MaxLen)[0]
	if allocs := testing.AllocsPerRun(20, func() { m.Embed(q) }); allocs > 50 {
		t.Errorf("attention Embed at d=64/MaxLen 48 allocates %v times per call, budget 50", allocs)
	}
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m.Embed(q)
		}
	})
	if kb := r.AllocedBytesPerOp() / 1024; kb > 600 {
		t.Errorf("attention Embed at d=64/MaxLen 48 allocates %d KB per call, budget 600 KB", kb)
	}
	t.Logf("attention Embed: %d allocs/op, %d KB/op, %.2f ms/op",
		r.AllocsPerOp(), r.AllocedBytesPerOp()/1024, float64(r.NsPerOp())/1e6)
}

// TestEmbedAllParallelRetainsPerWorkerScratch is the regression test for
// the batch path's memory: vectors are copied into the flat result inside
// the worker, so what a 512-trip call holds mid-flight is the result plus
// one Scratch per worker — not one graph per trajectory, which is what
// made an unchunked 5 000-trip call at d=64 run out of memory.
func TestEmbedAllParallelRetainsPerWorkerScratch(t *testing.T) {
	space := genTrajs(512, 63)
	m, err := New(tinyConfig(), space)
	if err != nil {
		t.Fatal(err)
	}
	var before, during runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	const workers = 4
	embedAllParallel(space, m.Dim(), workers, func() embedInto {
		embed := m.embedWorker()
		return func(tr geo.Trajectory, dst []float64) {
			embed(tr, dst)
			if &tr[0] == &space[500][0] { // near the end: anything per-item would have piled up
				runtime.GC()
				runtime.ReadMemStats(&during)
			}
		}
	})
	if during.HeapAlloc == 0 {
		t.Fatal("the probe item was never embedded")
	}
	retained := int64(during.HeapAlloc) - int64(before.HeapAlloc)
	// One taped tinyConfig pass is ~150 KB, so 500 retained graphs would be
	// ~75 MB; four workers' scratch plus the 64 KB result is well under 2 MB.
	if limit := int64(workers) * 512 << 10; retained > limit {
		t.Errorf("a 512-trip EmbedAllParallel holds %d KB mid-call, want O(workers) ≤ %d KB", retained>>10, limit>>10)
	}
}
