package engine

import (
	"math/rand"
	"testing"

	"traj2hash/internal/hamming"
)

// TestFastPathCountSurvivesCompaction: the hybrid fast-path counter is a
// monotone total. A compaction replaces the shard's backends; the count
// they accumulated must not go with them.
func TestFastPathCountSurvivesCompaction(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	const n, dim, k, searches = 400, 8, 5, 50 // 8-bit codes: radius 2 always holds k
	for _, shards := range []int{1, 3} {
		e, err := New(Options{Backends: []string{HammingHybridName, HammingBFName}, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		vecs := randVecs(rng, n, dim)
		if _, err := e.AddBatch(vecs, nil); err != nil {
			t.Fatal(err)
		}
		search := func() {
			for i := 0; i < searches; i++ {
				v := vecs[rng.Intn(n)]
				e.Search(Query{Emb: v, Code: hamming.FromSigns(v)}, k)
			}
		}
		search()
		before := e.FastPathCount()
		if before != int64(searches*shards) {
			t.Fatalf("shards=%d: %d fast paths after %d searches, want %d", shards, before, searches, searches*shards)
		}
		for id := 0; id < 120; id++ { // 30 % of every shard: crosses DefaultCompactAt
			if err := e.Delete(id); err != nil {
				t.Fatal(err)
			}
		}
		for si, sh := range e.shards {
			if len(sh.ids) >= (n+shards-1)/shards {
				t.Fatalf("shards=%d: shard %d was never compacted (the test needs a compaction)", shards, si)
			}
		}
		if got := e.FastPathCount(); got != before {
			t.Fatalf("shards=%d: FastPathCount went from %d to %d across compaction", shards, before, got)
		}
		search()
		if got := e.FastPathCount(); got <= before {
			t.Fatalf("shards=%d: FastPathCount %d after another %d searches, want more than %d", shards, got, searches, before)
		}
	}
}

// sharedTable returns the one table shard sh's hamming-bf and
// hamming-hybrid backends search, failing the test if they hold two, or
// if it was fed more than once per item.
func sharedTable(t *testing.T, when string, si int, sh *shard) *hamming.Table {
	t.Helper()
	var bf *HammingBF
	var hybrid *HammingHybrid
	for _, b := range sh.backends {
		switch b := b.(type) {
		case *HammingBF:
			bf = b
		case *HammingHybrid:
			hybrid = b
		}
	}
	if bf == nil || hybrid == nil {
		t.Fatalf("%s: shard %d lacks one of the two Hamming backends", when, si)
	}
	if bf.tab != hybrid.tab || bf.tab.t == nil {
		t.Fatalf("%s: shard %d holds two tables (bf %p, hybrid %p)", when, si, bf.tab.t, hybrid.tab.t)
	}
	if got := bf.tab.t.Len(); got != len(sh.ids) {
		t.Fatalf("%s: shard %d table holds %d codes for %d items", when, si, got, len(sh.ids))
	}
	return bf.tab.t
}

// TestShardSharesOneTable: an engine maintaining hamming-hybrid and
// hamming-bf keeps one hamming.Table per shard — whichever of the two is
// listed first, after a mutation history, after Compact, and after
// Restore — and both strategies still answer exactly like a standalone
// backend of their kind (which owns its table) fed the surviving items.
func TestShardSharesOneTable(t *testing.T) {
	const n, dim, k = 180, 16, 12
	for _, names := range [][]string{
		{HammingHybridName, HammingBFName, EuclideanBFName},
		{HammingBFName, EuclideanBFName, HammingHybridName},
	} {
		rng := rand.New(rand.NewSource(73))
		opts := Options{Backends: names, Shards: 3, CompactAt: -1}
		e, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		liveIDs, embs, codes := mutationScript(t, e, rng, n, dim)
		items := make([]RestoreItem, 0, len(liveIDs))
		liveCodes := make([]hamming.Code, 0, len(liveIDs))
		for _, id := range liveIDs {
			items = append(items, RestoreItem{ID: id, Emb: embs[id], Code: codes[id]})
			liveCodes = append(liveCodes, codes[id])
		}
		queries := make([]Query, 10)
		for i := range queries {
			v := randVecs(rng, 1, dim)[0]
			queries[i] = Query{Emb: v, Code: hamming.FromSigns(v)}
		}
		queries[0].Code = liveCodes[0] // guaranteed ties

		check := func(when string, e *Engine) {
			t.Helper()
			seen := map[*hamming.Table]bool{}
			for si, sh := range e.shards {
				seen[sharedTable(t, when, si, sh)] = true
			}
			if len(seen) != len(e.shards) {
				t.Fatalf("%s: %d distinct tables for %d shards", when, len(seen), len(e.shards))
			}
			for _, name := range []string{HammingBFName, HammingHybridName} {
				alone := mustBackend(t, name, Config{}, nil, liveCodes)
				for qi, q := range queries {
					got, err := searchWith(e, name, q, k)
					if err != nil {
						t.Fatal(err)
					}
					want := alone.Search(q, k)
					if len(got) != len(want) {
						t.Fatalf("%s %s query %d: %d results, standalone %d", when, name, qi, len(got), len(want))
					}
					for i := range want {
						//lint:ignore floatcompare byte-identical parity is the contract under test
						if got[i].ID != liveIDs[want[i].ID] || got[i].Score != want[i].Score {
							t.Fatalf("%s %s query %d rank %d: got %+v, standalone {ID:%d Score:%v}",
								when, name, qi, i, got[i], liveIDs[want[i].ID], want[i].Score)
						}
					}
				}
			}
		}

		check("mutated", e)
		if err := e.Compact(); err != nil {
			t.Fatal(err)
		}
		check("compacted", e)
		r, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Restore(e.NextID(), items); err != nil {
			t.Fatal(err)
		}
		check("restored", r)
	}
}
