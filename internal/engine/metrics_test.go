package engine

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"traj2hash/internal/hamming"
	"traj2hash/internal/obs"
)

// newInstrumentedEngine builds an engine over euclidean-bf with n random
// items, returning the engine and its registry (nil reg = uninstrumented).
func newInstrumentedEngine(t testing.TB, reg *obs.Registry, shards, n, d int) *Engine {
	t.Helper()
	e, err := New(Options{
		Backends: []string{EuclideanBFName},
		Shards:   shards,
		Metrics:  reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for _, v := range randVecs(rng, n, d) {
		if _, err := e.Add(v, hamming.FromSigns(v)); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

func TestEngineMetricsRecordSearches(t *testing.T) {
	reg := obs.New()
	e := newInstrumentedEngine(t, reg, 3, 60, 8)
	q := Query{Emb: make([]float64, 8)}
	for i := 0; i < 5; i++ {
		rs, st := e.SearchCtx(context.Background(), q, 10)
		if !st.Complete || len(rs) != 10 {
			t.Fatalf("query %d: complete=%v len=%d", i, st.Complete, len(rs))
		}
	}
	s := reg.Snapshot()
	if got := s.Counters["engine.search.total"]; got != 5 {
		t.Fatalf("engine.search.total = %d, want 5", got)
	}
	if got := s.Counters["search.degraded"]; got != 0 {
		t.Fatalf("search.degraded = %d, want 0", got)
	}
	if got := s.Counters["engine.shard.panics"]; got != 0 {
		t.Fatalf("engine.shard.panics = %d, want 0", got)
	}
	// Every shard answered every query: 5 observations per shard histogram.
	for si := 0; si < 3; si++ {
		name := fmt.Sprintf("engine.shard.seconds.%s.%d", EuclideanBFName, si)
		h, ok := s.Histograms[name]
		if !ok {
			t.Fatalf("missing histogram %s (have %v)", name, reg.Names())
		}
		if h.Count != 5 {
			t.Fatalf("%s count = %d, want 5", name, h.Count)
		}
	}
	if h := s.Histograms["engine.merge.seconds"]; h.Count != 5 {
		t.Fatalf("engine.merge.seconds count = %d, want 5", h.Count)
	}
	// Candidates: 3 shards × top-10 each = 30 per query.
	if h := s.Histograms["engine.search.candidates"]; h.Count != 5 || h.Sum != 150 {
		t.Fatalf("engine.search.candidates count=%d sum=%v, want 5/150", h.Count, h.Sum)
	}
	// One span per query.
	spans := reg.Tracer().Spans()
	if len(spans) != 5 {
		t.Fatalf("got %d spans, want 5", len(spans))
	}
	if spans[0].Name != "engine.search."+EuclideanBFName {
		t.Fatalf("span name = %q", spans[0].Name)
	}
}

func TestEngineMetricsDegradedOnCanceledContext(t *testing.T) {
	reg := obs.New()
	e := newInstrumentedEngine(t, reg, 2, 20, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, st := e.SearchCtx(ctx, Query{Emb: make([]float64, 4)}, 5)
	if st.Complete {
		t.Fatal("pre-canceled context should yield an incomplete status")
	}
	if got := reg.Snapshot().Counters["search.degraded"]; got != 1 {
		t.Fatalf("search.degraded = %d, want 1", got)
	}

	// Batch path: every skipped query counts as asked-and-degraded.
	qs := []Query{{Emb: make([]float64, 4)}, {Emb: make([]float64, 4)}}
	_, sts, err := e.SearchBatchWithCtx(ctx, e.names[0], qs, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range sts {
		if s.Complete {
			t.Fatalf("batch query %d should be incomplete", i)
		}
	}
	snap := reg.Snapshot()
	if got := snap.Counters["search.degraded"]; got != 3 {
		t.Fatalf("search.degraded after batch = %d, want 3", got)
	}
	if got := snap.Counters["engine.search.total"]; got != 3 {
		t.Fatalf("engine.search.total = %d, want 3", got)
	}
}

func TestEngineUninstrumentedHasNoMetricsState(t *testing.T) {
	e := newInstrumentedEngine(t, nil, 2, 20, 4)
	if e.met != nil {
		t.Fatal("nil Options.Metrics should leave the engine uninstrumented")
	}
	// The no-op path must still answer correctly.
	rs, st := e.SearchCtx(context.Background(), Query{Emb: make([]float64, 4)}, 5)
	if !st.Complete || len(rs) != 5 {
		t.Fatalf("uninstrumented search: complete=%v len=%d", st.Complete, len(rs))
	}
}

// benchSearchBatch drives SearchBatch over a 3-shard euclidean engine —
// the BENCH_obs overhead guard: the Metrics variant must stay within 5%
// of NoMetrics (see scripts/ci.sh and DESIGN.md "Observability").
func benchSearchBatch(b *testing.B, reg *obs.Registry) {
	e := newInstrumentedEngine(b, reg, 3, 2000, 16)
	rng := rand.New(rand.NewSource(11))
	qs := make([]Query, 32)
	for i := range qs {
		v := make([]float64, 16)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		qs[i] = Query{Emb: v}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		searchBatch(e, qs, 10)
	}
}

func BenchmarkSearchBatchNoMetrics(b *testing.B) { benchSearchBatch(b, nil) }
func BenchmarkSearchBatchMetrics(b *testing.B)   { benchSearchBatch(b, obs.New()) }
