package engine

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"traj2hash/internal/hamming"
	"traj2hash/internal/obs"
)

// The helpers below run the engine's context-aware entry points with no
// deadline and drop the Status, for tests that assert on answers only.

func searchWith(e *Engine, name string, q Query, k int) ([]Result, error) {
	rs, _, err := e.SearchWithCtx(context.Background(), name, q, k)
	return rs, err
}

// searchBatch batches under the default backend; that name is always
// maintained, so the configuration error is impossible.
func searchBatch(e *Engine, qs []Query, k int) [][]Result {
	rs, _, _ := e.SearchBatchWithCtx(context.Background(), e.names[0], qs, k)
	return rs
}

func within(e *Engine, code hamming.Code, radius int) ([]int, error) {
	ids, _, err := e.WithinCtx(context.Background(), code, radius)
	return ids, err
}

func randVecs(rng *rand.Rand, n, d int) [][]float64 {
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

func randCodes(rng *rand.Rand, n, bits int) []hamming.Code {
	out := make([]hamming.Code, n)
	for i := range out {
		v := make([]float64, bits)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		out[i] = hamming.FromSigns(v)
	}
	return out
}

// standalone is one strategy over a store of its own: what a consumer
// outside the engine (the experiments, the benchmarks) builds.
type standalone struct {
	be Backend
	*Store
}

func (s standalone) Search(q Query, k int) []Result { return s.be.Search(s.Store, q, k) }

func newStandalone(t *testing.T, name string, cfg Config) standalone {
	t.Helper()
	be, err := NewBackend(name, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return standalone{be, NewStore(cfg, be)}
}

// mustBackend builds a strategy over its own store and feeds it items;
// embs or codes may be nil when the strategy only reads the other column.
func mustBackend(t *testing.T, name string, cfg Config, embs [][]float64, codes []hamming.Code) standalone {
	t.Helper()
	s := newStandalone(t, name, cfg)
	n := len(embs)
	if n == 0 {
		n = len(codes)
	}
	for i := 0; i < n; i++ {
		var e []float64
		var c hamming.Code
		if embs != nil {
			e = embs[i]
		}
		if codes != nil {
			c = codes[i]
		}
		if err := s.Add(e, c); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func TestRegistryHasAllFiveBackends(t *testing.T) {
	want := []string{EuclideanBFName, HammingBFName, HammingHybridName, MIHName, VPTreeName}
	got := BackendNames()
	for _, w := range want {
		found := false
		for _, g := range got {
			if g == w {
				found = true
			}
		}
		if !found {
			t.Errorf("backend %q not listed (have %v)", w, got)
		}
		if b, err := NewBackend(w, Config{}); err != nil || b.Name() != w {
			t.Errorf("NewBackend(%q) = %v, %v", w, b, err)
		}
	}
	if _, err := NewBackend("no-such-backend", Config{}); err == nil {
		t.Error("unknown backend accepted")
	}
}

// TestBackendValidation: the store refuses, whichever strategy searches
// it, an item with neither representation, a row of another dimension, a
// code of another length than Config.Bits or than the codes stored, and a
// column that was not there from the start — and a refusal changes
// nothing.
func TestBackendValidation(t *testing.T) {
	code := func(bits int) hamming.Code { return hamming.FromSigns(make([]float64, bits)) }
	for _, name := range allBackends {
		eb := newStandalone(t, name, Config{})
		if err := eb.Add(nil, hamming.Code{}); err == nil {
			t.Errorf("%s: store accepted an empty item", name)
		}
		if err := eb.Add([]float64{1, 2}, hamming.Code{}); err != nil {
			t.Fatal(err)
		}
		for what, err := range map[string]error{
			"dim mismatch":      eb.Add([]float64{1}, hamming.Code{}),
			"a late code":       eb.Add([]float64{1, 2}, code(2)),
			"a code alone":      eb.Add(nil, code(2)),
			"update dim":        eb.Update(0, []float64{1, 2, 3}, hamming.Code{}),
			"update unknown id": eb.Update(1, []float64{1, 2}, hamming.Code{}),
			"update negative":   eb.Update(-1, []float64{1, 2}, hamming.Code{}),
		} {
			if err == nil || !strings.HasPrefix(err.Error(), "engine: ") {
				t.Errorf("%s: %s: error %v, want an engine:-attributed one", name, what, err)
			}
		}
		if eb.Len() != 1 || !reflect.DeepEqual(eb.embs.at(0), []float64{1, 2}) {
			t.Errorf("%s: refused operations changed the store: %d items, row 0 %v", name, eb.Len(), eb.embs.at(0))
		}

		hb := newStandalone(t, name, Config{Bits: 16})
		if err := hb.Add(nil, code(8)); err == nil {
			t.Errorf("%s: store accepted a first code off Config.Bits", name)
		}
		if err := hb.Add(nil, code(16)); err != nil {
			t.Errorf("%s: store rejected matching bits: %v", name, err)
		}
		if err := hb.Add(nil, code(8)); err == nil {
			t.Errorf("%s: store accepted a second code of another length", name)
		}
		if err := hb.Add(make([]float64, 16), code(16)); err == nil {
			t.Errorf("%s: store accepted a late embedding", name)
		}
		if hb.Len() != 1 {
			t.Errorf("%s: refused codes changed the store: %d items", name, hb.Len())
		}
	}
}

func TestDefaultMIHChunks(t *testing.T) {
	for _, tc := range []struct{ bits, want int }{
		{16, 4}, {64, 4}, {256, 4}, {2, 2}, {300, 5},
	} {
		if got := mihChunks(tc.bits); got != tc.want {
			t.Errorf("mihChunks(%d) = %d, want %d", tc.bits, got, tc.want)
		}
	}
	// At every bit length the chosen chunk count must be constructible.
	rng := rand.New(rand.NewSource(9))
	for _, bits := range []int{1, 2, 3, 16, 64, 65, 256, 300} {
		if _, err := hamming.NewMIH(randCodes(rng, 3, bits), mihChunks(bits)); err != nil {
			t.Errorf("bits=%d: %v", bits, err)
		}
	}
}

func TestEngineRoundRobinSharding(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	e, err := New(Options{Backends: []string{EuclideanBFName}, Shards: 3, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	vecs := randVecs(rng, 10, 4)
	ids, err := e.AddBatch(vecs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		if id != i {
			t.Fatalf("ids = %v", ids)
		}
	}
	if e.Len() != 10 {
		t.Fatalf("Len = %d", e.Len())
	}
	// Shard s holds global ids s, s+3, s+6, … in ascending order.
	for s, sh := range e.shards {
		for j, id := range sh.ids {
			if id != s+3*j {
				t.Fatalf("shard %d ids = %v", s, sh.ids)
			}
		}
	}
	// Searching for an exact item returns it first with score 0.
	res := e.Search(Query{Emb: vecs[7]}, 3)
	if len(res) != 3 || res[0].ID != 7 || res[0].Score != 0 {
		t.Fatalf("self search = %+v", res)
	}
}

// TestLocPacksToEightBytes: there is one loc per id ever assigned, so it
// stays two int32s — and New refuses a shard count that would not fit.
func TestLocPacksToEightBytes(t *testing.T) {
	if size := unsafe.Sizeof(loc{}); size != 8 {
		t.Errorf("loc is %d bytes, want 8", size)
	}
	tooMany := math.MaxInt32
	tooMany++
	if _, err := New(Options{Shards: tooMany}); err == nil || !strings.HasPrefix(err.Error(), "engine: ") {
		t.Errorf("New with %d shards: error %v, want an engine:-attributed one", tooMany, err)
	}
}

func TestEngineSearchWithUnknownBackend(t *testing.T) {
	e, err := New(Options{Backends: []string{EuclideanBFName}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := searchWith(e, HammingBFName, Query{}, 3); err == nil {
		t.Error("backend not maintained by engine accepted")
	}
	if _, err := searchWith(e, "bogus", Query{}, 3); err == nil {
		t.Error("unknown backend accepted")
	}
}

func TestEngineWithin(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	codes := randCodes(rng, 60, 12)
	e, err := New(Options{
		Backends: []string{HammingHybridName},
		Shards:   4,
		Config:   Config{Bits: 12},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range codes {
		if _, err := e.Add(c.Signs(), c); err != nil {
			t.Fatal(err)
		}
	}
	got, err := within(e, codes[5], 0)
	if err != nil {
		t.Fatal(err)
	}
	// Reference: scan.
	var want []int
	for i, c := range codes {
		if hamming.Distance(codes[5], c) == 0 {
			want = append(want, i)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Within(0) = %v, want %v", got, want)
	}
	// Monotone in radius and always sorted.
	prev := len(got)
	for r := 1; r <= 2; r++ {
		ids, err := within(e, codes[5], r)
		if err != nil {
			t.Fatal(err)
		}
		if len(ids) < prev {
			t.Errorf("Within not monotone at radius %d", r)
		}
		for i := 1; i < len(ids); i++ {
			if ids[i] <= ids[i-1] {
				t.Fatalf("Within radius %d not sorted: %v", r, ids)
			}
		}
		prev = len(ids)
	}
	// An engine without a hybrid backend refuses.
	e2, _ := New(Options{Backends: []string{EuclideanBFName}})
	if _, err := within(e2, codes[0], 1); err == nil {
		t.Error("Within without hybrid backend accepted")
	}
}

// TestWithinRejectsUnsupportedRadius: a radius the lookup does not
// enumerate is a configuration error naming the range, raised before any
// shard is consulted — it used to be answered, complete, with the
// nearest supported radius's ids.
func TestWithinRejectsUnsupportedRadius(t *testing.T) {
	reg := obs.New()
	e, err := New(Options{Backends: []string{HammingHybridName}, Shards: 2, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	codes := randCodes(rng, 20, 12)
	for _, c := range codes {
		if _, err := e.Add(c.Signs(), c); err != nil {
			t.Fatal(err)
		}
	}
	for _, radius := range []int{-1, 3, 5} {
		ids, st, err := e.WithinCtx(context.Background(), codes[0], radius)
		if err == nil || !strings.Contains(err.Error(), "0–2") || ids != nil || st.ShardsOK != 0 {
			t.Errorf("WithinCtx(radius %d) = %v, %+v, err %v; want no ids, no shard work and an error naming 0–2", radius, ids, st, err)
		}
	}
	if got := reg.Snapshot().Counters["engine.search.total"]; got != 0 {
		t.Errorf("rejected radii moved engine.search.total to %d", got)
	}
}

// TestEngineSearchBatchMatchesSequential: every member of a batch is
// answered exactly as its query alone — results and Status — for every
// backend, on one shard and on three, fresh and with
// tombstones in the shards (compaction is off, so the dead items stay and
// the over-fetch runs).
func TestEngineSearchBatchMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	vecs := randVecs(rng, 200, 8)
	qs := make([]Query, 10)
	for i := range qs {
		emb := randVecs(rng, 1, 8)[0]
		qs[i] = Query{Emb: emb, Code: hamming.FromSigns(emb)}
	}
	ctx := context.Background()
	for _, backend := range BackendNames() {
		for _, shards := range []int{1, 3} {
			e, err := New(Options{Backends: []string{backend}, Shards: shards, Workers: 4, CompactAt: -1})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := e.AddBatch(vecs, nil); err != nil {
				t.Fatal(err)
			}
			for _, phase := range []string{"fresh", "tombstones"} {
				if phase == "tombstones" {
					for id := 0; id < len(vecs); id += 3 {
						if err := e.Delete(id); err != nil {
							t.Fatal(err)
						}
					}
				}
				batch, sts, err := e.SearchBatchWithCtx(ctx, backend, qs, 7)
				if err != nil {
					t.Fatal(err)
				}
				for qi, q := range qs {
					single, st, err := e.SearchWithCtx(ctx, backend, q, 7)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(batch[qi], single) || !reflect.DeepEqual(sts[qi], st) {
						t.Fatalf("%s shards=%d %s query %d: batch (%v, %+v) != single (%v, %+v)", backend, shards, phase, qi, batch[qi], sts[qi], single, st)
					}
				}
			}
		}
	}
}

// TestEngineConcurrentAddSearch is the acceptance-criterion race test:
// concurrent Add and Search (single and batch, plus Within) against a
// sharded engine, meant to run under -race.
func TestEngineConcurrentAddSearch(t *testing.T) {
	e, err := New(Options{
		Backends: []string{HammingHybridName, EuclideanBFName, MIHName, VPTreeName},
		Shards:   4,
		Workers:  4,
		Config:   Config{Bits: 16},
	})
	if err != nil {
		t.Fatal(err)
	}
	seedRng := rand.New(rand.NewSource(4))
	for _, v := range randVecs(seedRng, 32, 16) {
		if _, err := e.Add(v, hamming.FromSigns(v)); err != nil {
			t.Fatal(err)
		}
	}

	const (
		writers       = 3
		readers       = 4
		addsPerWriter = 40
		searches      = 60
	)
	var wg sync.WaitGroup
	errCh := make(chan error, writers+readers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < addsPerWriter; i++ {
				v := randVecs(rng, 1, 16)[0]
				if _, err := e.Add(v, hamming.FromSigns(v)); err != nil {
					errCh <- err
					return
				}
			}
		}(int64(100 + w))
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < searches; i++ {
				v := randVecs(rng, 1, 16)[0]
				q := Query{Emb: v, Code: hamming.FromSigns(v)}
				for _, name := range e.names {
					rs, err := searchWith(e, name, q, 5)
					if err != nil {
						errCh <- err
						return
					}
					for j := 1; j < len(rs); j++ {
						if rs[j].Score < rs[j-1].Score {
							t.Errorf("%s results unsorted", name)
						}
					}
				}
				if i%10 == 0 {
					searchBatch(e, []Query{q, q}, 3)
					if _, err := within(e, q.Code, 1); err != nil {
						errCh <- err
						return
					}
				}
			}
		}(int64(200 + r))
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if want := 32 + writers*addsPerWriter; e.Len() != want {
		t.Fatalf("Len = %d, want %d", e.Len(), want)
	}
}
