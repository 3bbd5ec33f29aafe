package engine

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"traj2hash/internal/hamming"
)

// TestShardedEngineMatchesSingleBackend is the cross-backend parity
// check: on a seeded dataset, the sharded engine must return exactly the
// ids (and scores) a single unsharded backend instance returns — which is
// also what the legacy internal/search strategies compute, since those
// are adapters over the same backends. Exactness relies on every backend
// breaking distance ties by ascending id (see topk.Select), so this
// doubles as the tie-determinism integration test.
func TestShardedEngineMatchesSingleBackend(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const (
		n    = 400
		dim  = 16
		k    = 25
		nQry = 20
	)
	vecs := randVecs(rng, n, dim)
	codes := make([]hamming.Code, n)
	for i, v := range vecs {
		codes[i] = hamming.FromSigns(v)
	}
	queries := make([]Query, nQry)
	for i := range queries {
		v := randVecs(rng, 1, dim)[0]
		queries[i] = Query{Emb: v, Code: hamming.FromSigns(v)}
	}
	// Include exact-duplicate items so Hamming ties are guaranteed.
	queries[0] = Query{Emb: vecs[3], Code: codes[3]}

	for _, backend := range []string{EuclideanBFName, HammingBFName, HammingHybridName, MIHName, VPTreeName} {
		ref := mustBackend(t, backend, Config{}, vecs, codes)
		for _, shards := range []int{1, 3, 7} {
			e, err := New(Options{Backends: []string{backend}, Shards: shards, Workers: 4})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := e.AddBatch(vecs, codes); err != nil {
				t.Fatal(err)
			}
			for qi, q := range queries {
				want := ref.Search(q, k)
				got := e.Search(q, k)
				if len(got) != len(want) {
					t.Fatalf("%s shards=%d query %d: len %d vs %d", backend, shards, qi, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s shards=%d query %d rank %d: engine %+v != backend %+v",
							backend, shards, qi, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestHammingBackendsAgree verifies the three Hamming backends are
// interchangeable on results: hamming-bf, hamming-hybrid, and mih all
// return the exact Hamming top-k with ascending-id tie-breaks, so their
// id lists must be identical (the paper's hybrid and the MIH extension
// only trade lookup cost, never answers).
func TestHammingBackendsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, bits := range []int{12, 16, 32} {
		codes := randCodes(rng, 500, bits)
		queries := randCodes(rng, 15, bits)
		queries[0] = codes[9] // guarantee a distance-0 hit and ties

		bf := mustBackend(t, HammingBFName, Config{}, nil, codes)
		hy := mustBackend(t, HammingHybridName, Config{}, nil, codes)
		mih := mustBackend(t, MIHName, Config{}, nil, codes)
		for qi, qc := range queries {
			q := Query{Code: qc}
			want := bf.Search(q, 20)
			for name, be := range map[string]standalone{"hybrid": hy, "mih": mih} {
				got := be.Search(q, 20)
				if len(got) != len(want) {
					t.Fatalf("bits=%d %s query %d: len %d vs %d", bits, name, qi, len(got), len(want))
				}
				for i := range want {
					if got[i].ID != want[i].ID || got[i].Score != want[i].Score {
						t.Fatalf("bits=%d %s query %d rank %d: %+v != bf %+v",
							bits, name, qi, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestVPTreeMatchesEuclideanBF: the metric-tree backend must return the
// same ids as the Euclidean scan on tie-free seeded data.
func TestVPTreeMatchesEuclideanBF(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	vecs := randVecs(rng, 300, 8)
	bf := mustBackend(t, EuclideanBFName, Config{}, vecs, nil)
	vp := mustBackend(t, VPTreeName, Config{VPSeed: 42}, vecs, nil)
	for qi := 0; qi < 15; qi++ {
		q := Query{Emb: randVecs(rng, 1, 8)[0]}
		want := bf.Search(q, 10)
		got := vp.Search(q, 10)
		if len(got) != len(want) {
			t.Fatalf("query %d: len %d vs %d", qi, len(got), len(want))
		}
		for i := range want {
			if got[i].ID != want[i].ID {
				t.Fatalf("query %d rank %d: vptree %+v != euclidean %+v", qi, i, got[i], want[i])
			}
			if got[i].Score != want[i].Score {
				t.Fatalf("query %d rank %d: score %v != %v", qi, i, got[i].Score, want[i].Score)
			}
		}
	}
	// Incremental adds invalidate and rebuild the tree.
	extra := randVecs(rng, 1, 8)[0]
	if err := vp.Add(extra, hamming.Code{}); err != nil {
		t.Fatal(err)
	}
	res := vp.Search(Query{Emb: extra}, 1)
	if len(res) != 1 || res[0].ID != 300 || res[0].Score != 0 {
		t.Fatalf("post-add self search = %+v", res)
	}
}

// TestEngineEdgeCasesAllBackends sweeps the degenerate-query corners for
// every registered backend behind a sharded engine: non-positive k, an
// empty engine, k exceeding the corpus (up to math.MaxInt over a
// tombstone), and a context canceled before any shard runs. These are the inputs the failure-domain contract
// (DESIGN.md "Failure semantics & graceful degradation") pins down:
// empty answers that need no shard work are Complete, and a dead context
// yields an incomplete Status with zero shards consulted.
func TestEngineEdgeCasesAllBackends(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const (
		n   = 30
		dim = 16
	)
	vecs := randVecs(rng, n, dim)
	codes := make([]hamming.Code, n)
	for i, v := range vecs {
		codes[i] = hamming.FromSigns(v)
	}
	qv := randVecs(rng, 1, dim)[0]
	q := Query{Emb: qv, Code: hamming.FromSigns(qv)}

	for _, backend := range BackendNames() {
		for _, shards := range []int{1, 3} {
			mk := func(empty bool) *Engine {
				e, err := New(Options{Backends: []string{backend}, Shards: shards, Workers: 2})
				if err != nil {
					t.Fatal(err)
				}
				if !empty {
					if _, err := e.AddBatch(vecs, codes); err != nil {
						t.Fatal(err)
					}
				}
				return e
			}

			// k <= 0: exact empty answer, no shard work, Complete.
			e := mk(false)
			for _, k := range []int{0, -3} {
				rs, st := e.SearchCtx(context.Background(), q, k)
				if len(rs) != 0 {
					t.Errorf("%s shards=%d k=%d: %d results, want 0", backend, shards, k, len(rs))
				}
				if !st.Complete || st.Err != nil {
					t.Errorf("%s shards=%d k=%d: status %+v, want Complete", backend, shards, k, st)
				}
			}

			// Empty engine: every shard answers (emptily), so Complete.
			rs, st := mk(true).SearchCtx(context.Background(), q, 5)
			if len(rs) != 0 {
				t.Errorf("%s shards=%d empty engine: %d results, want 0", backend, shards, len(rs))
			}
			if !st.Complete {
				t.Errorf("%s shards=%d empty engine: status %+v, want Complete", backend, shards, st)
			}

			// k > corpus: every item comes back, still Complete.
			rs, st = e.SearchCtx(context.Background(), q, n+50)
			if len(rs) != n {
				t.Errorf("%s shards=%d k>n: %d results, want %d", backend, shards, len(rs), n)
			}
			if !st.Complete {
				t.Errorf("%s shards=%d k>n: status %+v, want Complete", backend, shards, st)
			}
			seen := map[int]bool{}
			for _, r := range rs {
				seen[r.ID] = true
			}
			if len(seen) != n {
				t.Errorf("%s shards=%d k>n: %d distinct ids, want %d", backend, shards, len(seen), n)
			}

			// Context canceled before the fan-out starts: no shard is
			// consulted, the answer is empty and incomplete, and the
			// status carries the context error.
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			rs, st = e.SearchCtx(ctx, q, 5)
			if len(rs) != 0 {
				t.Errorf("%s shards=%d canceled: %d results, want 0", backend, shards, len(rs))
			}
			if st.Complete || st.ShardsOK != 0 || st.ShardsFailed != 0 {
				t.Errorf("%s shards=%d canceled: status %+v, want incomplete with no shards consulted", backend, shards, st)
			}
			if !errors.Is(st.Err, context.Canceled) {
				t.Errorf("%s shards=%d canceled: err %v, want context.Canceled", backend, shards, st.Err)
			}

			// The batch path under a dead context: per-query statuses all
			// incomplete.
			_, sts, err := e.SearchBatchWithCtx(ctx, backend, []Query{q, q, q}, 5)
			if err != nil {
				t.Fatal(err)
			}
			for qi, s := range sts {
				if s.Complete {
					t.Errorf("%s shards=%d canceled batch query %d: status %+v, want incomplete", backend, shards, qi, s)
				}
			}

			// k = math.MaxInt over a shard with a tombstone: every live
			// item, Complete — the over-fetch of k plus the dead count
			// must not overflow.
			if err := e.Delete(0); err != nil {
				t.Fatal(err)
			}
			rs, st = e.SearchCtx(context.Background(), q, math.MaxInt)
			if len(rs) != n-1 || !st.Complete {
				t.Errorf("%s shards=%d k=MaxInt after a delete: %d results, %+v; want %d, Complete", backend, shards, len(rs), st, n-1)
			}
		}
	}
}
