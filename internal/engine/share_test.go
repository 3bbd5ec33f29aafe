package engine

import (
	"math/rand"
	"reflect"
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

// census walks everything reachable from root — through pointers,
// interfaces, structs, slices, arrays and maps, unexported fields
// included — and counts the distinct hamming.Tables it meets and the
// float64s the distinct float slices have room for. It knows nothing of
// how a shard is wired, which is the point: a second table or a second
// copy of the rows shows up wherever it hides.
func census(root any) (tables, floats int) {
	type ref struct {
		at uintptr
		t  reflect.Type
	}
	seen := map[ref]bool{}
	first := func(v reflect.Value) bool {
		r := ref{v.Pointer(), v.Type()}
		was := seen[r]
		seen[r] = true
		return !was
	}
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Pointer:
			if v.IsNil() || !first(v) {
				return
			}
			if v.Type() == reflect.TypeOf((*hamming.Table)(nil)) {
				tables++
			}
			walk(v.Elem())
		case reflect.Interface:
			if !v.IsNil() {
				walk(v.Elem())
			}
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i))
			}
		case reflect.Slice:
			if v.IsNil() || !first(v) {
				return
			}
			if v.Type().Elem().Kind() == reflect.Float64 {
				floats += v.Cap()
			}
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i))
			}
		case reflect.Array:
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i))
			}
		case reflect.Map:
			for it := v.MapRange(); it.Next(); {
				walk(it.Key())
				walk(it.Value())
			}
		}
	}
	walk(reflect.ValueOf(root))
	return tables, floats
}

// TestShardSharesOneTable: a shard searched by all five strategies
// builds exactly one hamming.Table — in whichever order they are listed,
// after a mutation history, after Compact, and after Restore — and
// hamming-bf and hamming-hybrid still answer exactly like a strategy of
// their kind over a store of its own fed the surviving items.
func TestShardSharesOneTable(t *testing.T) {
	const n, dim, k = 180, 16, 12
	for rot := range allBackends {
		names := rotated(rot)
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
			for si, sh := range e.shards {
				if tables, _ := census(sh); tables != 1 {
					t.Fatalf("%s %v: shard %d reaches %d hamming.Tables, want 1", when, names, si, tables)
				}
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
