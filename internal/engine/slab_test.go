package engine

import (
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"traj2hash/internal/hamming"
	"traj2hash/internal/topk"
)

func fillSlab(t testing.TB, vecs [][]float64) *slab {
	t.Helper()
	s := &slab{}
	for _, v := range vecs {
		s.append(v)
	}
	return s
}

// TestSlabRoundTrip: rows come back as stored across chunk boundaries
// (dim 1 packs 4096 rows a chunk, dim 100 packs 40 with a remainder),
// set overwrites exactly one row, and the store copies: mutating the
// argument afterwards changes nothing.
func TestSlabRoundTrip(t *testing.T) {
	for _, dim := range []int{1, 16, 64, 100} {
		rng := rand.New(rand.NewSource(int64(dim)))
		per := max(1, slabChunkFloats/dim)
		n := 2*per + 3 // two full chunks and a partial one
		vecs := randVecs(rng, n, dim)
		want := make([][]float64, n)
		for i, v := range vecs {
			want[i] = append([]float64(nil), v...)
		}
		s := fillSlab(t, vecs)
		if s.len() != n || len(s.chunks) != 3 {
			t.Fatalf("dim %d: %d rows in %d chunks, want %d in 3", dim, s.len(), len(s.chunks), n)
		}
		for _, c := range s.chunks {
			if cap(c) > slabChunkFloats {
				t.Fatalf("dim %d: a chunk of %d floats, cap %d", dim, cap(c), slabChunkFloats)
			}
		}
		for _, i := range []int{0, per - 1, per, 2*per - 1, 2 * per, n - 1} {
			repl := randVecs(rng, 1, dim)[0]
			s.set(i, repl)
			want[i] = append([]float64(nil), repl...)
			repl[0] += 1000
		}
		for _, v := range vecs {
			v[0] += 1000
		}
		for i := range want {
			if got := s.at(i); !reflect.DeepEqual(got, want[i]) {
				t.Fatalf("dim %d: row %d = %v, want %v", dim, i, got, want[i])
			}
		}
	}
}

// TestSlabRowsNeverMove: a view taken early still reads (and is) its row
// after the slab has grown by many chunks.
func TestSlabRowsNeverMove(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const dim = 64
	vecs := randVecs(rng, 10, dim)
	s := fillSlab(t, vecs)
	view := s.at(7)
	for _, v := range randVecs(rng, 10000, dim) {
		s.append(v)
	}
	if !reflect.DeepEqual(view, vecs[7]) {
		t.Fatalf("the view of row 7 reads %v after growth, want %v", view, vecs[7])
	}
	if &view[0] != &s.at(7)[0] {
		t.Fatal("row 7 moved while the slab grew")
	}
}

// TestSlabRejectsMismatch: a row of another length is a caller bug — the
// Store validates before it writes (TestBackendValidation) — that the slab
// refuses with an attributed panic rather than corrupt its layout.
func TestSlabRejectsMismatch(t *testing.T) {
	s := fillSlab(t, [][]float64{{1, 2, 3}})
	for name, write := range map[string]func(){
		"append short": func() { s.append([]float64{1, 2}) },
		"append long":  func() { s.append([]float64{1, 2, 3, 4}) },
		"append empty": func() { s.append(nil) },
		"set short":    func() { s.set(0, []float64{1}) },
	} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.HasPrefix(msg, "engine: ") {
					t.Errorf("%s: recovered %q, want an engine:-attributed panic", name, msg)
				}
			}()
			write()
		}()
	}
	if s.len() != 1 || !reflect.DeepEqual(s.at(0), []float64{1, 2, 3}) {
		t.Fatalf("rejected operations changed the slab: %d rows, row 0 %v", s.len(), s.at(0))
	}
}

// TestSlabNearestMatchesSelect: the scan equals topk.Select over the
// plain per-pair loop, ids and scores bit for bit, ties (duplicated
// rows) included, for k below, at and above the row count.
func TestSlabNearestMatchesSelect(t *testing.T) {
	for _, dim := range []int{1, 7, 64, 100} {
		rng := rand.New(rand.NewSource(int64(100 + dim)))
		vecs := randVecs(rng, 300, dim)
		for i := 0; i < 40; i++ { // duplicates: equal scores, ascending-id order
			vecs[250+i] = vecs[rng.Intn(250)]
		}
		s := fillSlab(t, vecs)
		var sel topk.Selector
		for _, k := range []int{0, 1, 10, 299, 300, 1000} {
			q := vecs[rng.Intn(len(vecs))]
			if k%2 == 0 {
				q = randVecs(rng, 1, dim)[0]
			}
			want := topk.Select(len(vecs), k, func(i int) float64 { return sqDist(q, vecs[i]) })
			got := s.nearest(q, k, &sel)
			if len(got) != len(want) {
				t.Fatalf("dim %d k %d: %d results, want %d", dim, k, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("dim %d k %d rank %d: got %+v, want %+v", dim, k, i, got[i], want[i])
				}
			}
		}
	}
}

// TestHotpathEuclideanScanZeroAlloc locks in the //perf:hotpath contract
// on slab.nearest: with a reused Selector the scan allocates nothing.
func TestHotpathEuclideanScanZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	s := fillSlab(t, randVecs(rng, 2000, 64))
	q := randVecs(rng, 1, 64)[0]
	var sel topk.Selector
	s.nearest(q, 10, &sel) // warm the selector
	if allocs := testing.AllocsPerRun(50, func() { s.nearest(q, 10, &sel) }); allocs != 0 {
		t.Fatalf("slab.nearest allocates %v times per scan, want 0", allocs)
	}
}

// BenchmarkHotpathEuclideanScan measures the steady-state Euclidean-BF
// scan (10k rows, d=64, k=10) with a reused Selector.
func BenchmarkHotpathEuclideanScan(b *testing.B) {
	rng := rand.New(rand.NewSource(15))
	s := fillSlab(b, randVecs(rng, 10000, 64))
	q := randVecs(rng, 1, 64)[0]
	var sel topk.Selector
	s.nearest(q, 10, &sel) // warm the selector
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.nearest(q, 10, &sel)
	}
}

// TestShardHoldsOneSlab: a shard searched by all five strategies holds
// its embedding rows once — after a mutation history, after Compact and
// after Restore — whatever the strategies are called and however they
// reach the rows: everything reachable from the shard (see census) has
// room for exactly the chunks its items need.
func TestShardHoldsOneSlab(t *testing.T) {
	const dim = 16
	rng := rand.New(rand.NewSource(77))
	opts := Options{Backends: allBackends, Shards: 3, CompactAt: -1}
	e, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	liveIDs, embs, codes := mutationScript(t, e, rng, 120, dim)
	per := slabChunkFloats / dim
	check := func(when string, e *Engine) {
		t.Helper()
		// Build the VP trees first: they point at the rows.
		if _, err := searchWith(e, VPTreeName, Query{Emb: embs[liveIDs[0]]}, 1); err != nil {
			t.Fatal(err)
		}
		for si, sh := range e.shards {
			want := (len(sh.ids) + per - 1) / per * slabChunkFloats
			if _, floats := census(sh); floats != want {
				t.Fatalf("%s: shard %d reaches room for %d floats, its %d rows need %d", when, si, floats, len(sh.ids), want)
			}
		}
	}
	check("mutated", e)
	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	check("compacted", e)
	items := make([]RestoreItem, 0, len(liveIDs))
	for _, id := range liveIDs {
		items = append(items, RestoreItem{ID: id, Emb: embs[id], Code: codes[id]})
	}
	r, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Restore(e.NextID(), items); err != nil {
		t.Fatal(err)
	}
	check("restored", r)
}

// perItemOverhead is what TestPerItemHeapBudget allows a shard per item
// on top of the embedding's own dim × 8 bytes: the code word (8), the
// global id (8), the loc (8), the tombstone flag (1), the hybrid table's
// bucket — random 64-bit codes are all distinct, so one per item: a key
// word (8), a slice header (24), a one-id array (8) and a map entry —
// and append slack on the growing arrays. Measured 121.7 B at this PR
// (123.5 after the rest of the package's tests); the parent, which kept
// two further slice headers per item (the shard's embs and
// euclidean-bf's, 24 B each) and 16-byte locs, measured 181.5 B.
const perItemOverhead = 132

// TestPerItemHeapBudget is the tripwire against the next duplicated
// per-item structure: the facade's backend set over 20 000 items at
// d = 64 may cost 512 B of embedding per item plus perItemOverhead.
func TestPerItemHeapBudget(t *testing.T) {
	const n, dim = 20000, 64
	heap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	rng := rand.New(rand.NewSource(21))
	v := make([]float64, dim)
	before := heap()
	e, err := New(Options{Backends: []string{HammingHybridName, EuclideanBFName}, Shards: 2, CompactAt: -1})
	if err != nil {
		t.Fatal(err)
	}
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
	t.Logf("%.1f B per item (%.1f over the embedding)", perItem, perItem-dim*8)
	if perItem > dim*8+perItemOverhead {
		t.Fatalf("%.1f B of live heap per item, budget %d + %d: something holds a second per-item structure",
			perItem, dim*8, perItemOverhead)
	}
}
