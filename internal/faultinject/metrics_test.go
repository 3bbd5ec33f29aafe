package faultinject

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"testing"
	"time"

	"traj2hash/internal/engine"
	"traj2hash/internal/hamming"
	"traj2hash/internal/obs"
	"traj2hash/internal/wal"
)

// instrumentedFaultyEngine is faultyEngine with an obs registry attached.
func instrumentedFaultyEngine(t *testing.T, reg *obs.Registry, shards int, f *Faults, vecs [][]float64) *engine.Engine {
	t.Helper()
	Register()
	e, err := engine.New(engine.Options{
		Backends: []string{BackendName},
		Shards:   shards,
		Workers:  4,
		Metrics:  reg,
		Config:   engine.Config{Hooks: f},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vecs {
		if _, err := e.Add(v, hamming.Code{}); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// exportMetricsArtifact writes the registry's JSON snapshot to the file
// named by METRICS_JSON_OUT (the CI artifact; see scripts/ci.sh). A
// no-op when the variable is unset, so ordinary `go test` runs leave no
// files behind.
func exportMetricsArtifact(t *testing.T, reg *obs.Registry) {
	t.Helper()
	path := os.Getenv("METRICS_JSON_OUT")
	if path == "" {
		return
	}
	out, err := os.Create(path)
	if err != nil {
		t.Fatalf("metrics artifact: %v", err)
	}
	if err := reg.WriteJSON(out); err != nil {
		out.Close()
		t.Fatalf("metrics artifact: %v", err)
	}
	if err := out.Close(); err != nil {
		t.Fatalf("metrics artifact: %v", err)
	}
}

// TestInjectedPanicsMoveMetrics is the acceptance check that chaos is
// VISIBLE: every injected shard panic must surface as an
// engine.shard.panics increment and every degraded answer as a
// search.degraded increment — exact deltas, not just "nonzero".
func TestInjectedPanicsMoveMetrics(t *testing.T) {
	const (
		n       = 90
		dim     = 8
		shards  = 3
		queries = 4
	)
	rng := rand.New(rand.NewSource(61))
	vecs := testVecs(rng, n, dim)
	reg := obs.New()
	f := &Faults{PanicOn: map[int]bool{1: true}}
	e := instrumentedFaultyEngine(t, reg, shards, f, vecs)

	for i := 0; i < queries; i++ {
		q := testVecs(rng, 1, dim)[0]
		_, st := e.SearchCtx(context.Background(), engine.Query{Emb: q}, 10)
		if st.Complete {
			t.Fatalf("query %d: complete despite a panicking shard", i)
		}
	}

	s := reg.Snapshot()
	if got := s.Counters["engine.shard.panics"]; got != queries {
		t.Errorf("engine.shard.panics = %d, want %d", got, queries)
	}
	if got := s.Counters["search.degraded"]; got != queries {
		t.Errorf("search.degraded = %d, want %d", got, queries)
	}
	if got := s.Counters["engine.search.total"]; got != queries {
		t.Errorf("engine.search.total = %d, want %d", got, queries)
	}
	// The panicking shard's latency is still accounted (the defer
	// observes on the panic path too): every shard histogram saw every
	// query.
	for si := 0; si < shards; si++ {
		name := fmt.Sprintf("engine.shard.seconds.%s.%d", BackendName, si)
		if h := s.Histograms[name]; h.Count != queries {
			t.Errorf("%s count = %d, want %d", name, h.Count, queries)
		}
	}
	exportMetricsArtifact(t, reg)
}

// TestSlowShardLatencyAttributedToThatShard is the fan-out timing
// regression test: per-shard latency is measured inside the worker, so
// one slow shard must show up in ITS histogram only — not smeared over
// the fast shards (the old around-the-merge measurement charged every
// shard for the slowest one) and not folded into the merge time.
func TestSlowShardLatencyAttributedToThatShard(t *testing.T) {
	const (
		n       = 60
		dim     = 8
		shards  = 3
		queries = 3
		nap     = 30 * time.Millisecond
	)
	rng := rand.New(rand.NewSource(67))
	vecs := testVecs(rng, n, dim)
	reg := obs.New()
	f := &Faults{SleepOn: map[int]time.Duration{1: nap}}
	e := instrumentedFaultyEngine(t, reg, shards, f, vecs)

	for i := 0; i < queries; i++ {
		q := testVecs(rng, 1, dim)[0]
		_, st := e.SearchCtx(context.Background(), engine.Query{Emb: q}, 10)
		if !st.Complete {
			t.Fatalf("query %d incomplete: %v", i, st.Err)
		}
	}

	s := reg.Snapshot()
	name := func(si int) string { return fmt.Sprintf("engine.shard.seconds.%s.%d", BackendName, si) }
	slow := s.Histograms[name(1)]
	if slow.Count != queries {
		t.Fatalf("slow shard count = %d, want %d", slow.Count, queries)
	}
	minSlow := float64(queries) * nap.Seconds()
	if slow.Sum < minSlow {
		t.Errorf("slow shard latency sum = %v, want >= %v", slow.Sum, minSlow)
	}
	for _, si := range []int{0, 2} {
		fast := s.Histograms[name(si)]
		if fast.Count != queries {
			t.Fatalf("shard %d count = %d, want %d", si, fast.Count, queries)
		}
		if fast.Sum >= slow.Sum {
			t.Errorf("shard %d latency sum %v >= slow shard's %v: injected latency leaked across shards", si, fast.Sum, slow.Sum)
		}
	}
	// The merge is timed separately and must not absorb the shard wait.
	merge := s.Histograms["engine.merge.seconds"]
	if merge.Count != queries {
		t.Fatalf("merge count = %d, want %d", merge.Count, queries)
	}
	if merge.Sum >= slow.Sum {
		t.Errorf("merge latency sum %v >= slow shard's %v: shard wait folded into the merge measurement", merge.Sum, slow.Sum)
	}
}

// TestTimeoutPartialResultCountsDegraded: a deadline expiring mid-fan-out
// (the CLI's `search -timeout` scenario) must return a partial answer
// AND increment search.degraded.
func TestTimeoutPartialResultCountsDegraded(t *testing.T) {
	const (
		n      = 60
		dim    = 8
		shards = 3
	)
	rng := rand.New(rand.NewSource(71))
	vecs := testVecs(rng, n, dim)
	reg := obs.New()
	f := &Faults{SleepOn: map[int]time.Duration{2: 2 * time.Second}}
	e := instrumentedFaultyEngine(t, reg, shards, f, vecs)

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	q := testVecs(rng, 1, dim)[0]
	rs, st := e.SearchCtx(ctx, engine.Query{Emb: q}, 10)
	if st.Complete {
		t.Error("complete despite an expired deadline")
	}
	if !errors.Is(st.Err, context.DeadlineExceeded) {
		t.Errorf("status error = %v, want a wrapped DeadlineExceeded", st.Err)
	}
	if len(rs) == 0 {
		t.Error("no partial results from the fast shards")
	}
	s := reg.Snapshot()
	if got := s.Counters["search.degraded"]; got != 1 {
		t.Errorf("search.degraded = %d, want 1", got)
	}
	if got := s.Counters["engine.shard.panics"]; got != 0 {
		t.Errorf("engine.shard.panics = %d, want 0 (slow is not panicking)", got)
	}
}

// TestChaosPanicsAllVisible: under seeded probabilistic chaos the panic
// counter must equal the number of failed shard attempts accumulated
// across the statuses — no panic escapes accounting.
func TestChaosPanicsAllVisible(t *testing.T) {
	const (
		n       = 90
		dim     = 8
		shards  = 3
		queries = 40
	)
	rng := rand.New(rand.NewSource(73))
	vecs := testVecs(rng, n, dim)
	reg := obs.New()
	f := &Faults{PanicProb: 0.3, Seed: 991}
	e := instrumentedFaultyEngine(t, reg, shards, f, vecs)

	var failed, degraded int64
	for i := 0; i < queries; i++ {
		q := testVecs(rng, 1, dim)[0]
		_, st := e.SearchCtx(context.Background(), engine.Query{Emb: q}, 5)
		failed += int64(st.ShardsFailed)
		if !st.Complete {
			degraded++
		}
	}
	if failed == 0 {
		t.Fatal("chaos schedule never fired; the scenario is vacuous")
	}
	s := reg.Snapshot()
	if got := s.Counters["engine.shard.panics"]; got != failed {
		t.Errorf("engine.shard.panics = %d, want %d (sum of ShardsFailed)", got, failed)
	}
	if got := s.Counters["search.degraded"]; got != degraded {
		t.Errorf("search.degraded = %d, want %d", got, degraded)
	}
}

// TestMutationAndWALMetricsExact is the satellite-(f) acceptance check:
// the mutability and durability layers are observable with EXACT
// deltas. A scripted engine workload must move engine.deletes and
// engine.compactions by precisely the scripted amounts, and a WAL
// workload crashed mid-append by an injected short write must surface
// as exactly one wal.recoveries and one wal.torn_tails on reopen, with
// wal.appends/wal.fsyncs counting only the operations that succeeded —
// records for the former, writes for the latter: a group of n records
// moves them by n and by 1.
func TestMutationAndWALMetricsExact(t *testing.T) {
	reg := obs.New()

	// Engine side: 10 vectors on 2 shards, 4 deletes with automatic
	// compaction disabled, then one explicit Compact — which rebuilds
	// exactly the two shards holding tombstones.
	Register()
	rng := rand.New(rand.NewSource(83))
	e, err := engine.New(engine.Options{
		Backends:  []string{BackendName},
		Shards:    2,
		Workers:   2,
		CompactAt: -1,
		Metrics:   reg,
		Config:    engine.Config{Hooks: &Faults{}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range testVecs(rng, 10, 8) {
		if _, err := e.Add(v, hamming.Code{}); err != nil {
			t.Fatal(err)
		}
	}
	for id := 0; id < 4; id++ {
		if err := e.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}

	// WAL side: a store through a fault-injected FS. The log's magic
	// header is write 1, each appended record is one more write and a
	// group of records ONE more, so arming the short write at index 6
	// tears the record behind three appends and a group of five.
	dir := t.TempDir()
	fs := NewFS(nil)
	fs.ShortWriteAt(6)
	s, _, err := wal.Open(wal.Options{Dir: dir, Metrics: reg, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	rec := wal.Record{Op: wal.OpAdd, Emb: []float64{1, 2}, Code: hamming.Code{Bits: 2, Words: []uint64{3}}}
	for i := 0; i < 3; i++ {
		rec.ID = i
		if err := s.Append(rec); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	group := make([]wal.Record, 5)
	for i := range group {
		group[i], group[i].ID = rec, 3+i
	}
	if err := s.AppendBatch(group); err != nil {
		t.Fatalf("group append: %v", err)
	}
	rec.ID = 8
	if err := s.Append(rec); !errors.Is(err, ErrCrashed) {
		t.Fatalf("torn append = %v, want ErrCrashed", err)
	}
	s.Close()

	s2, recovered, err := wal.Open(wal.Options{Dir: dir, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		s2.Close()
	}()
	if !recovered.TornTail || len(recovered.Tail) != 8 {
		t.Fatalf("recovered torn=%v tail=%d, want true/8", recovered.TornTail, len(recovered.Tail))
	}

	snap := reg.Snapshot()
	want := map[string]int64{
		"engine.deletes":     4,
		"engine.compactions": 2, // one per shard holding tombstones
		"wal.appends":        8, // 3 singles + the group's 5; the torn append never counts
		"wal.fsyncs":         4, // one per successful write (SyncEvery=1): a group of n is appends + n, fsyncs + 1
		"wal.recoveries":     1, // only the reopen found prior state
		"wal.torn_tails":     1,
	}
	for name, w := range want {
		if got := snap.Counters[name]; got != w {
			t.Errorf("%s = %d, want %d", name, got, w)
		}
	}
	exportMetricsArtifact(t, reg)
}
