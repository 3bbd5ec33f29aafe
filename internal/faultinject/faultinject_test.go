package faultinject

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"traj2hash/internal/engine"
	"traj2hash/internal/hamming"
)

// testVecs returns n seeded d-dimensional vectors.
func testVecs(rng *rand.Rand, n, d int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		v := make([]float64, d)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		out[i] = v
	}
	return out
}

// faultyEngine builds a sharded engine over the faulty backend with the
// given schedule and indexes vecs into it.
func faultyEngine(t *testing.T, shards int, f *Faults, vecs [][]float64) *engine.Engine {
	t.Helper()
	Register()
	e, err := engine.New(engine.Options{
		Backends: []string{BackendName},
		Shards:   shards,
		Workers:  4,
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

// bruteTopK computes the exact (squared-distance, id)-ascending top-k over
// the subset of items whose shard (id % shards) passes keep.
func bruteTopK(vecs [][]float64, q []float64, k, shards int, keep func(shard int) bool) []engine.Result {
	var all []engine.Result
	for id, v := range vecs {
		if !keep(id % shards) {
			continue
		}
		var sum float64
		for j := range q {
			d := q[j] - v[j]
			sum += d * d
		}
		all = append(all, engine.Result{ID: id, Score: sum})
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].Score != all[b].Score {
			return all[a].Score < all[b].Score
		}
		return all[a].ID < all[b].ID
	})
	if len(all) > k {
		all = all[:k]
	}
	return all
}

// TestFaultyEngineHoldsRowsOnce: the faulty backend wraps a strategy, not
// a container — its inner euclidean-bf searches the shard's one store, so
// an engine over it costs one copy of each embedding (the budget is
// internal/engine's TestPerItemHeapBudget: d × 8 bytes plus 132). The
// wrapper used to carry a private slab, a second 512 B per item.
func TestFaultyEngineHoldsRowsOnce(t *testing.T) {
	const n, dim = 20000, 64
	heap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	rng := rand.New(rand.NewSource(21))
	before := heap()
	e := faultyEngine(t, 2, &Faults{}, nil)
	v := make([]float64, dim)
	for i := 0; i < n; i++ {
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		if _, err := e.Add(v, hamming.Code{}); err != nil {
			t.Fatal(err)
		}
	}
	perItem := float64(heap()-before) / n
	runtime.KeepAlive(e)
	if perItem > dim*8+132 {
		t.Fatalf("%.1f B of live heap per item behind the faulty backend, budget %d + 132: the rows are held twice", perItem, dim*8)
	}
	if rs := e.Search(engine.Query{Emb: v}, 1); len(rs) != 1 || rs[0].ID != n-1 || rs[0].Score != 0 {
		t.Fatalf("self search through the wrapper = %+v, want id %d at distance 0", rs, n-1)
	}
}

// TestPanickingShardDegradesExactly is acceptance scenario (a): with
// shard 1 panicking on every search, a query must report exactly one
// failed shard and return the exact top-k of the two surviving shards.
func TestPanickingShardDegradesExactly(t *testing.T) {
	const (
		n      = 90
		dim    = 8
		k      = 15
		shards = 3
	)
	rng := rand.New(rand.NewSource(41))
	vecs := testVecs(rng, n, dim)
	f := &Faults{PanicOn: map[int]bool{1: true}}
	e := faultyEngine(t, shards, f, vecs)
	if got := f.Instances(); got != shards {
		t.Fatalf("built %d faulty instances, want %d (instance==shard contract)", got, shards)
	}

	q := testVecs(rng, 1, dim)[0]
	rs, st := e.SearchCtx(context.Background(), engine.Query{Emb: q}, k)

	if st.Complete {
		t.Error("status Complete despite a panicking shard")
	}
	if st.ShardsOK != 2 || st.ShardsFailed != 1 {
		t.Errorf("shards ok/failed = %d/%d, want 2/1", st.ShardsOK, st.ShardsFailed)
	}
	if st.Err == nil || !strings.Contains(st.Err.Error(), "faultinject") {
		t.Errorf("status error should carry the attributed panic value, got %v", st.Err)
	}
	want := bruteTopK(vecs, q, k, shards, func(s int) bool { return s != 1 })
	if len(rs) != len(want) {
		t.Fatalf("got %d results, want %d", len(rs), len(want))
	}
	for i := range want {
		if rs[i] != want[i] {
			t.Fatalf("rank %d: got %+v, want %+v (surviving-shard top-k must stay exact)", i, rs[i], want[i])
		}
	}
}

// TestDeadlineMidFanoutReturnsPartial is acceptance scenario (b): with
// shard 2 artificially slow and a deadline shorter than its latency, the
// query returns the fast shards' merged answer flagged incomplete.
func TestDeadlineMidFanoutReturnsPartial(t *testing.T) {
	const (
		n      = 60
		dim    = 8
		k      = 10
		shards = 3
	)
	rng := rand.New(rand.NewSource(43))
	vecs := testVecs(rng, n, dim)
	f := &Faults{SleepOn: map[int]time.Duration{2: 2 * time.Second}}
	e := faultyEngine(t, shards, f, vecs)

	q := testVecs(rng, 1, dim)[0]
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	rs, st := e.SearchCtx(ctx, engine.Query{Emb: q}, k)
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("search blocked %v past its 100ms deadline", elapsed)
	}

	if st.Complete {
		t.Error("status Complete despite an expired deadline")
	}
	if st.ShardsOK != 2 {
		t.Errorf("shards ok = %d, want 2 (the fast shards)", st.ShardsOK)
	}
	if !errors.Is(st.Err, context.DeadlineExceeded) {
		t.Errorf("status error should wrap context.DeadlineExceeded, got %v", st.Err)
	}
	want := bruteTopK(vecs, q, k, shards, func(s int) bool { return s != 2 })
	if len(rs) != len(want) {
		t.Fatalf("got %d results, want %d", len(rs), len(want))
	}
	for i := range want {
		if rs[i] != want[i] {
			t.Fatalf("rank %d: got %+v, want %+v", i, rs[i], want[i])
		}
	}
}

// TestBatchDeadlineSalvagesEveryMember is scenario (b) for a batch: with
// shard 2 slower than the deadline, every member of a batch larger than
// the worker budget comes back with its fast shards' merged answer,
// flagged incomplete — what the same query returns alone.
func TestBatchDeadlineSalvagesEveryMember(t *testing.T) {
	const (
		n       = 60
		dim     = 8
		k       = 10
		shards  = 3
		members = 6 // faultyEngine has 4 workers
	)
	rng := rand.New(rand.NewSource(43))
	vecs := testVecs(rng, n, dim)
	f := &Faults{SleepOn: map[int]time.Duration{2: 2 * time.Second}}
	e := faultyEngine(t, shards, f, vecs)

	qvecs := testVecs(rng, members, dim)
	qs := make([]engine.Query, members)
	for i, q := range qvecs {
		qs[i] = engine.Query{Emb: q}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	rs, sts, err := e.SearchBatchWithCtx(ctx, BackendName, qs, k)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("batch blocked %v past its 100ms deadline", elapsed)
	}
	for i, q := range qvecs {
		if st := sts[i]; st.Complete || st.ShardsOK != 2 || st.ShardsFailed != 0 || !errors.Is(st.Err, context.DeadlineExceeded) {
			t.Errorf("member %d: status %+v, want incomplete with the 2 fast shards and DeadlineExceeded", i, st)
		}
		want := bruteTopK(vecs, q, k, shards, func(s int) bool { return s != 2 })
		if !reflect.DeepEqual(rs[i], want) {
			t.Errorf("member %d:\n got %v\nwant %v (the fast shards' merge)", i, rs[i], want)
		}
	}
}

// TestChaosSearchesNeverCrash hammers an engine whose every backend
// panics with seeded probability, from many goroutines (run under -race).
// The process must survive and every status must account for all shards.
func TestChaosSearchesNeverCrash(t *testing.T) {
	const (
		n       = 120
		dim     = 8
		k       = 10
		shards  = 4
		workers = 8
		queries = 25
	)
	rng := rand.New(rand.NewSource(47))
	vecs := testVecs(rng, n, dim)
	f := &Faults{PanicProb: 0.5, Seed: 99}
	e := faultyEngine(t, shards, f, vecs)

	var wg sync.WaitGroup
	errc := make(chan string, workers*queries)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			qrng := rand.New(rand.NewSource(int64(1000 + w)))
			for i := 0; i < queries; i++ {
				q := testVecs(qrng, 1, dim)[0]
				rs, st := e.SearchCtx(context.Background(), engine.Query{Emb: q}, k)
				if st.ShardsOK+st.ShardsFailed != shards {
					errc <- "status does not account for every shard"
				}
				if st.Complete != (st.ShardsFailed == 0) {
					errc <- "Complete disagrees with the failure count"
				}
				if st.ShardsFailed > 0 && st.Err == nil {
					errc <- "failed shards but nil status error"
				}
				if len(rs) > k {
					errc <- "more than k results"
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for msg := range errc {
		t.Error(msg)
	}
}

// TestFaultyBackendNeedsHooks: constructing the faulty backend without a
// schedule in Config.Hooks must fail loudly, not panic or misbehave.
func TestFaultyBackendNeedsHooks(t *testing.T) {
	Register()
	if _, err := engine.New(engine.Options{Backends: []string{BackendName}}); err == nil {
		t.Fatal("faulty backend constructed without a *Faults in Config.Hooks")
	}
	if _, err := engine.New(engine.Options{
		Backends: []string{BackendName},
		Config:   engine.Config{Hooks: &Faults{Inner: BackendName}},
	}); err == nil {
		t.Fatal("faulty backend accepted itself as Inner")
	}
}

// TestGradPoisonerCharges: a site armed once fires once and never again —
// the property that lets a divergence-guard replay pass cleanly.
func TestGradPoisonerCharges(t *testing.T) {
	p := NewGradPoisoner(Site{Epoch: 2, Step: 0}, Site{Epoch: 2, Step: 0}, Site{Epoch: 5, Step: 1})
	if p.MaybePoison(0, 0, nil) {
		t.Error("unarmed site fired")
	}
	if !p.MaybePoison(2, 0, nil) || !p.MaybePoison(2, 0, nil) {
		t.Error("doubly-armed site should fire twice")
	}
	if p.MaybePoison(2, 0, nil) {
		t.Error("site fired past its charges")
	}
	if !p.MaybePoison(5, 1, nil) {
		t.Error("second site did not fire")
	}
	if got := p.Fired(); got != 3 {
		t.Errorf("Fired() = %d, want 3", got)
	}
}
