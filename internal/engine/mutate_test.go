package engine

import (
	"errors"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"traj2hash/internal/hamming"
	"traj2hash/internal/obs"
)

// allBackends is every production backend name, in canonical order.
var allBackends = []string{EuclideanBFName, HammingBFName, HammingHybridName, MIHName, VPTreeName}

// rotated returns allBackends starting at its rot-th name.
func rotated(rot int) []string {
	return append(append([]string(nil), allBackends[rot:]...), allBackends[:rot]...)
}

// mutationScript applies a deterministic Add/Delete/Update workload to e
// and returns the surviving state: live ids ascending, plus the current
// embedding and code of every live id. The script exercises deletes
// scattered across shards, double-mutation of the same id, and updates
// that move items in embedding space. Each after is called with the
// live state at the end of every phase of the script.
func mutationScript(t *testing.T, e *Engine, rng *rand.Rand, n, dim int, after ...func(embs map[int][]float64, codes map[int]hamming.Code)) (liveIDs []int, embs map[int][]float64, codes map[int]hamming.Code) {
	t.Helper()
	embs = map[int][]float64{}
	codes = map[int]hamming.Code{}
	phaseDone := func() {
		for _, f := range after {
			f(embs, codes)
		}
	}
	vecs := randVecs(rng, n, dim)
	for i, v := range vecs {
		c := hamming.FromSigns(v)
		id, err := e.Add(v, c)
		if err != nil {
			t.Fatal(err)
		}
		if id != i {
			t.Fatalf("add assigned id %d, want %d", id, i)
		}
		embs[id] = v
		codes[id] = c
	}
	phaseDone()
	// Delete every 5th item, then update every 7th survivor.
	for id := 0; id < n; id += 5 {
		if err := e.Delete(id); err != nil {
			t.Fatalf("delete %d: %v", id, err)
		}
		delete(embs, id)
		delete(codes, id)
	}
	phaseDone()
	for id := 0; id < n; id += 7 {
		if _, ok := embs[id]; !ok {
			continue
		}
		v := randVecs(rng, 1, dim)[0]
		c := hamming.FromSigns(v)
		if err := e.Update(id, v, c); err != nil {
			t.Fatalf("update %d: %v", id, err)
		}
		embs[id] = v
		codes[id] = c
	}
	phaseDone()
	// A second delete wave hits some updated items too.
	for id := 1; id < n; id += 9 {
		if _, ok := embs[id]; !ok {
			continue
		}
		if err := e.Delete(id); err != nil {
			t.Fatalf("delete %d: %v", id, err)
		}
		delete(embs, id)
		delete(codes, id)
	}
	phaseDone()
	return liveOf(embs), embs, codes
}

// liveOf returns the ids of a live state, ascending.
func liveOf(embs map[int][]float64) []int {
	ids := make([]int, 0, len(embs))
	for id := range embs {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// oracle is the naive answer of a backend over a live state: every item
// scored by the plain per-pair function of the backend's space, sorted by
// (score, id), cut at k.
func oracle(backend string, q Query, k int, embs map[int][]float64, codes map[int]hamming.Code) []Result {
	out := make([]Result, 0, len(embs))
	for _, id := range liveOf(embs) {
		score := float64(hamming.Distance(q.Code, codes[id]))
		if backend == EuclideanBFName || backend == VPTreeName {
			score = sqDist(q.Emb, embs[id])
		}
		out = append(out, Result{ID: id, Score: score})
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Score < out[b].Score || out[a].Score > out[b].Score {
			return out[a].Score < out[b].Score
		}
		return out[a].ID < out[b].ID
	})
	return out[:min(k, len(out))]
}

// TestMutatedEngineMatchesFreshBuild is the tentpole parity contract:
// after an arbitrary Add/Delete/Update history, every backend must
// answer exactly like an engine freshly built over the surviving items —
// same ids, same scores, same order, for every query — across shard
// counts and compaction settings (CompactAt -1 keeps all tombstones;
// 0.2 forces several compactions during the script). The fresh engine's
// renumbered ids are mapped back through the ascending live-id list,
// which is a bijection precisely because both sides order ties by
// ascending (global) id. Both are also held to the naive oracle — at the
// end of every phase of the history for the sharded engine, and at its
// end for the strategy over a standalone Store fed the survivors — so the
// two sides cannot be wrong together.
func TestMutatedEngineMatchesFreshBuild(t *testing.T) {
	const (
		n    = 200
		dim  = 16
		k    = 20
		nQry = 12
	)
	phaseQueries := make([]Query, 4)
	for i, v := range randVecs(rand.New(rand.NewSource(32)), len(phaseQueries), dim) {
		phaseQueries[i] = Query{Emb: v, Code: hamming.FromSigns(v)}
	}
	for _, backend := range allBackends {
		for _, shards := range []int{1, 3} {
			for _, compactAt := range []float64{-1, 0.2} {
				rng := rand.New(rand.NewSource(31))
				e, err := New(Options{Backends: []string{backend}, Shards: shards, Workers: 4, CompactAt: compactAt})
				if err != nil {
					t.Fatal(err)
				}
				liveIDs, embs, codes := mutationScript(t, e, rng, n, dim)
				if e.Len() != len(liveIDs) {
					t.Fatalf("%s shards=%d: Len %d, want %d", backend, shards, e.Len(), len(liveIDs))
				}

				fresh, err := New(Options{Backends: []string{backend}, Shards: shards, Workers: 4})
				if err != nil {
					t.Fatal(err)
				}
				for _, id := range liveIDs {
					if _, err := fresh.Add(embs[id], codes[id]); err != nil {
						t.Fatal(err)
					}
				}

				queries := make([]Query, nQry)
				for i := range queries {
					v := randVecs(rng, 1, dim)[0]
					queries[i] = Query{Emb: v, Code: hamming.FromSigns(v)}
				}
				// Guaranteed ties: query an updated survivor exactly.
				queries[0] = Query{Emb: embs[liveIDs[0]], Code: codes[liveIDs[0]]}

				for qi, q := range queries {
					got := e.Search(q, k)
					want := fresh.Search(q, k)
					if len(got) != len(want) {
						t.Fatalf("%s shards=%d compactAt=%v query %d: len %d vs %d",
							backend, shards, compactAt, qi, len(got), len(want))
					}
					for i := range want {
						wantID := liveIDs[want[i].ID]
						if got[i].ID != wantID || got[i].Score != want[i].Score {
							t.Fatalf("%s shards=%d compactAt=%v query %d rank %d: got %+v, want {ID:%d Score:%v}",
								backend, shards, compactAt, qi, i, got[i], wantID, want[i].Score)
						}
					}
					// No deleted id ever surfaces, at any k.
					for _, r := range e.Search(q, n) {
						if _, live := embs[r.ID]; !live {
							t.Fatalf("%s shards=%d compactAt=%v query %d: deleted id %d surfaced",
								backend, shards, compactAt, qi, r.ID)
						}
					}
				}
			}
		}
	}
}

// TestWithinExcludesDeleted: the radius-lookup path must filter
// tombstones too, before and after compaction.
func TestWithinExcludesDeleted(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	const n, dim = 120, 16
	e, err := New(Options{Backends: []string{HammingHybridName}, Shards: 3, CompactAt: -1})
	if err != nil {
		t.Fatal(err)
	}
	vecs := randVecs(rng, n, dim)
	for _, v := range vecs {
		if _, err := e.Add(v, hamming.FromSigns(v)); err != nil {
			t.Fatal(err)
		}
	}
	victim := 17
	q := hamming.FromSigns(vecs[victim])
	pre, err := within(e, q, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !containsInt(pre, victim) {
		t.Fatalf("victim %d not in its own radius-2 neighborhood %v", victim, pre)
	}
	if err := e.Delete(victim); err != nil {
		t.Fatal(err)
	}
	post, err := within(e, q, 2)
	if err != nil {
		t.Fatal(err)
	}
	if containsInt(post, victim) {
		t.Fatalf("deleted id %d still in Within answer %v", victim, post)
	}
	if len(post) != len(pre)-1 {
		t.Fatalf("Within shrank by %d, want 1", len(pre)-len(post))
	}
	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	compacted, err := within(e, q, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !equalInts(compacted, post) {
		t.Fatalf("Within changed across compaction: %v vs %v", compacted, post)
	}
}

// TestWithinDuringCompaction: WithinCtx touches shard state only under
// the shard's read lock. It used to pick the radius-lookup strategy by
// reading shard 0's backend list with no lock, racing the compaction that
// swaps that list in (run under -race: ci.sh's scenario stage). Deletes
// drive compactions (CompactAt 0.01) and updates move codes while a
// reader asks; once the writers stop, the answers are those of a serial
// scan over what survived.
func TestWithinDuringCompaction(t *testing.T) {
	const n, dim, radius = 1500, 12, 2
	for _, shards := range []int{1, 4} {
		rng := rand.New(rand.NewSource(91))
		e, err := New(Options{Backends: []string{EuclideanBFName, HammingHybridName}, Shards: shards, CompactAt: 0.01})
		if err != nil {
			t.Fatal(err)
		}
		vecs := randVecs(rng, n, dim)
		if _, err := e.AddBatch(vecs, nil); err != nil {
			t.Fatal(err)
		}
		moved := randVecs(rng, n, dim)
		probes := randCodes(rng, 8, dim)

		var writers, reader sync.WaitGroup
		stop := make(chan struct{})
		writers.Add(2)
		go func() { // ids 0, 3, 6, … go; every few deletes compact a shard
			defer writers.Done()
			for id := 0; id < n/2; id += 3 {
				if err := e.Delete(id); err != nil {
					t.Error(err)
				}
			}
		}()
		go func() { // ids 1, 4, 7, … move
			defer writers.Done()
			for id := 1; id < n; id += 3 {
				if err := e.Update(id, moved[id], hamming.Code{}); err != nil {
					t.Error(err)
				}
			}
		}()
		reader.Add(1)
		go func() {
			defer reader.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				ids, err := within(e, probes[i%len(probes)], radius)
				if err != nil {
					t.Error(err)
					return
				}
				for j := 1; j < len(ids); j++ {
					if ids[j] <= ids[j-1] {
						t.Errorf("shards=%d: Within answer not ascending: %v", shards, ids)
						return
					}
				}
			}
		}()
		writers.Wait()
		close(stop)
		reader.Wait()

		for pi, probe := range probes {
			var want []int
			for id := 0; id < n; id++ {
				v := vecs[id]
				switch {
				case id%3 == 0 && id < n/2:
					continue
				case id%3 == 1:
					v = moved[id]
				}
				if hamming.Distance(probe, hamming.FromSigns(v)) <= radius {
					want = append(want, id)
				}
			}
			got, err := within(e, probe, radius)
			if err != nil {
				t.Fatal(err)
			}
			if !equalInts(got, want) {
				t.Fatalf("shards=%d probe %d: Within = %v, a serial scan gives %v", shards, pi, got, want)
			}
		}
	}
}

func containsInt(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestDeleteUpdateErrors pins the typed-error contract and the liveness
// bookkeeping around it.
func TestDeleteUpdateErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	e, err := New(Options{Backends: allBackends, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	vecs := randVecs(rng, 10, 8)
	for _, v := range vecs {
		if _, err := e.Add(v, hamming.FromSigns(v)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Delete(42); !errors.Is(err, ErrNotFound) {
		t.Fatalf("delete unknown id: %v, want ErrNotFound", err)
	}
	if err := e.Delete(-1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("delete negative id: %v, want ErrNotFound", err)
	}
	if err := e.Delete(3); err != nil {
		t.Fatal(err)
	}
	if err := e.Delete(3); !errors.Is(err, ErrDeleted) {
		t.Fatalf("double delete: %v, want ErrDeleted", err)
	}
	if err := e.Update(3, vecs[0], hamming.Code{}); !errors.Is(err, ErrDeleted) {
		t.Fatalf("update deleted id: %v, want ErrDeleted", err)
	}
	if err := e.Update(42, vecs[0], hamming.Code{}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("update unknown id: %v, want ErrNotFound", err)
	}
	if err := e.Update(1, []float64{}, hamming.Code{}); err == nil {
		t.Fatal("update with empty embedding accepted")
	}
	if err := e.Update(1, randVecs(rng, 1, 12)[0], hamming.Code{}); err == nil {
		t.Fatal("dimension-changing update accepted")
	}
	mismatched := hamming.FromSigns(randVecs(rng, 1, 6)[0])
	if err := e.Update(1, vecs[1], mismatched); err == nil {
		t.Fatal("update with code/embedding length disagreement accepted")
	}
	if e.Len() != 9 || e.NextID() != 10 {
		t.Fatalf("Len=%d NextID=%d, want 9/10", e.Len(), e.NextID())
	}
	if e.Live(3) || !e.Live(2) || e.Live(10) || e.Live(-2) {
		t.Fatal("Live bookkeeping wrong")
	}
}

// TestAddErrorPathsAllBackends covers the ingestion validation matrix
// for every backend: empty embeddings, dimension drift between adds,
// code/embedding length disagreement, and mismatched batch lengths.
// None of these may mutate the engine.
func TestAddErrorPathsAllBackends(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, backend := range allBackends {
		e, err := New(Options{Backends: []string{backend}, Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		v := randVecs(rng, 1, 8)[0]
		if _, err := e.Add(nil, hamming.Code{}); err == nil {
			t.Fatalf("%s: empty embedding accepted", backend)
		}
		if _, err := e.Add(v, hamming.FromSigns(randVecs(rng, 1, 6)[0])); err == nil {
			t.Fatalf("%s: code/embedding length disagreement accepted", backend)
		}
		if _, err := e.Add(v, hamming.Code{}); err != nil {
			t.Fatalf("%s: valid add rejected: %v", backend, err)
		}
		if _, err := e.Add(randVecs(rng, 1, 12)[0], hamming.Code{}); err == nil {
			t.Fatalf("%s: dimension drift accepted", backend)
		}
		if _, err := e.AddBatch(randVecs(rng, 3, 8), randCodes(rng, 2, 8)); err == nil {
			t.Fatalf("%s: mismatched batch lengths accepted", backend)
		}
		if e.Len() != 1 || e.NextID() != 1 {
			t.Fatalf("%s: failed adds mutated the engine: Len=%d NextID=%d", backend, e.Len(), e.NextID())
		}
	}
}

// TestRefusalsDoNotDependOnBackendOrder: the representation rules live in
// the store, not in whichever strategy is listed first — every rotation
// of the five names answers identically, refuses each bad input of
// TestAddErrorPathsAllBackends and TestDeleteUpdateErrors with the same
// error text, and a refused Add or Update leaves Len, every strategy's
// answers and the next assigned id untouched.
func TestRefusalsDoNotDependOnBackendOrder(t *testing.T) {
	const n, dim, k = 40, 8, 6
	rng := rand.New(rand.NewSource(97))
	vecs := randVecs(rng, n, dim)
	queries := make([]Query, 4)
	for i, v := range randVecs(rng, len(queries), dim) {
		queries[i] = Query{Emb: v, Code: hamming.FromSigns(v)}
	}
	wide, narrow := randVecs(rng, 1, 12)[0], randCodes(rng, 1, 6)[0]
	add := func(emb []float64, code hamming.Code) func(*Engine) error {
		return func(e *Engine) error { _, err := e.Add(emb, code); return err }
	}
	update := func(id int, emb []float64, code hamming.Code) func(*Engine) error {
		return func(e *Engine) error { return e.Update(id, emb, code) }
	}
	bad := []struct {
		name string
		do   func(*Engine) error
	}{
		{"add of an empty embedding", add(nil, hamming.Code{})},
		{"add with code/embedding disagreement", add(vecs[0], narrow)},
		{"add with dimension drift", add(wide, hamming.Code{})},
		{"batch of mismatched lengths", func(e *Engine) error { _, err := e.AddBatch(vecs[:3], randCodes(rng, 2, dim)); return err }},
		{"update with an empty embedding", update(1, nil, hamming.Code{})},
		{"update changing the dimension", update(1, wide, hamming.Code{})},
		{"update with code/embedding disagreement", update(1, vecs[1], narrow)},
		{"update of an unknown id", update(n+5, vecs[1], hamming.Code{})},
		{"update of a deleted id", update(3, vecs[1], hamming.Code{})},
	}
	var firstErrs []string
	var firstAnswers [][]Result
	for rot := range allBackends {
		names := rotated(rot)
		e, err := New(Options{Backends: names, Shards: 2, Config: Config{Bits: dim}})
		if err != nil {
			t.Fatal(err)
		}
		state := func() (int, int, [][]Result) {
			var answers [][]Result
			for _, backend := range allBackends {
				for _, q := range queries {
					rs, err := searchWith(e, backend, q, k)
					if err != nil {
						t.Fatal(err)
					}
					answers = append(answers, rs)
				}
			}
			return e.Len(), e.NextID(), answers
		}
		// A first item off Config.Bits is refused by the store itself.
		err = add(wide, hamming.Code{})(e)
		if err == nil || e.Len() != 0 || e.NextID() != 0 {
			t.Fatalf("%v: a %d-dim first item under Config.Bits %d: error %v, Len %d, NextID %d", names, len(wide), dim, err, e.Len(), e.NextID())
		}
		errs := []string{err.Error()}
		if _, err := e.AddBatch(vecs, nil); err != nil {
			t.Fatal(err)
		}
		if err := e.Delete(3); err != nil {
			t.Fatal(err)
		}
		_, _, before := state()
		for _, b := range bad {
			err := b.do(e)
			if err == nil {
				t.Fatalf("%v: %s accepted", names, b.name)
			}
			errs = append(errs, err.Error())
			if length, next, after := state(); length != n-1 || next != n || !reflect.DeepEqual(after, before) {
				t.Fatalf("%v: a refused %s changed the engine: Len %d, NextID %d, answers equal %v",
					names, b.name, length, next, reflect.DeepEqual(after, before))
			}
		}
		if id, err := e.Add(vecs[0], hamming.Code{}); err != nil || id != n {
			t.Fatalf("%v: the add after the refusals got id %d, %v; want %d", names, id, err, n)
		}
		if rot == 0 {
			firstErrs, firstAnswers = errs, before
			continue
		}
		if !reflect.DeepEqual(errs, firstErrs) {
			t.Fatalf("error texts depend on backend order:\n%v: %q\n%v: %q", names, errs, allBackends, firstErrs)
		}
		if !reflect.DeepEqual(before, firstAnswers) {
			t.Fatalf("answers depend on backend order (%v vs %v)", names, allBackends)
		}
	}
}

// TestCompactionThreshold verifies the density trigger: with CompactAt
// 0.5 on one shard, deletes below the threshold keep tombstones, and the
// crossing delete compacts (observed through the compaction counter and
// the post-compaction Update still addressing the right item).
func TestCompactionThreshold(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	reg := obs.New()
	e, err := New(Options{Backends: allBackends, Shards: 1, CompactAt: 0.5, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	const n, dim = 8, 8
	vecs := randVecs(rng, n, dim)
	for _, v := range vecs {
		if _, err := e.Add(v, hamming.FromSigns(v)); err != nil {
			t.Fatal(err)
		}
	}
	counter := func(name string) int64 { return reg.Counter(name).Value() }
	for _, id := range []int{0, 1, 2} { // 3/8 < 0.5: no compaction yet
		if err := e.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	if got := counter("engine.compactions"); got != 0 {
		t.Fatalf("compactions after 3/8 deletes = %d, want 0", got)
	}
	if err := e.Delete(3); err != nil { // 4/8 reaches the threshold
		t.Fatal(err)
	}
	if got := counter("engine.compactions"); got != 1 {
		t.Fatalf("compactions after threshold delete = %d, want 1", got)
	}
	if got := counter("engine.deletes"); got != 4 {
		t.Fatalf("engine.deletes = %d, want 4", got)
	}
	// Post-compaction, ids still address the same items: updating id 5
	// to match a probe query must surface id 5.
	probe := randVecs(rng, 1, dim)[0]
	if err := e.Update(5, probe, hamming.Code{}); err != nil {
		t.Fatal(err)
	}
	if got := counter("engine.updates"); got != 1 {
		t.Fatalf("engine.updates = %d, want 1", got)
	}
	rs := e.Search(Query{Emb: probe, Code: hamming.FromSigns(probe)}, 1)
	if len(rs) != 1 || rs[0].ID != 5 || rs[0].Score != 0 {
		t.Fatalf("post-compaction self search = %+v, want id 5 at distance 0", rs)
	}
	// Deleted ids stay deleted across compaction.
	if err := e.Delete(0); !errors.Is(err, ErrDeleted) {
		t.Fatalf("post-compaction delete of dead id: %v, want ErrDeleted", err)
	}
}

// TestRestoreRebuildsExactly: Restore over (next, live items) must equal
// the mutated original on every backend, including the tombstone map.
func TestRestoreRebuildsExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	const n, dim, k = 150, 16, 15
	for _, shards := range []int{1, 4} {
		e, err := New(Options{Backends: allBackends, Shards: shards, CompactAt: -1})
		if err != nil {
			t.Fatal(err)
		}
		liveIDs, embs, codes := mutationScript(t, e, rng, n, dim)
		items := make([]RestoreItem, 0, len(liveIDs))
		for _, id := range liveIDs {
			items = append(items, RestoreItem{ID: id, Emb: embs[id], Code: codes[id]})
		}
		r, err := New(Options{Backends: allBackends, Shards: shards, CompactAt: -1})
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Restore(e.NextID(), items); err != nil {
			t.Fatal(err)
		}
		if r.Len() != e.Len() || r.NextID() != e.NextID() {
			t.Fatalf("restored Len/NextID %d/%d, want %d/%d", r.Len(), r.NextID(), e.Len(), e.NextID())
		}
		for id := 0; id < n; id++ {
			if r.Live(id) != e.Live(id) {
				t.Fatalf("restored liveness of %d = %v, original %v", id, r.Live(id), e.Live(id))
			}
		}
		for _, backend := range allBackends {
			for qi := 0; qi < 8; qi++ {
				v := randVecs(rng, 1, dim)[0]
				q := Query{Emb: v, Code: hamming.FromSigns(v)}
				want, err := searchWith(e, backend, q, k)
				if err != nil {
					t.Fatal(err)
				}
				got, err := searchWith(r, backend, q, k)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("%s shards=%d query %d: len %d vs %d", backend, shards, qi, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s shards=%d query %d rank %d: restored %+v != original %+v",
							backend, shards, qi, i, got[i], want[i])
					}
				}
			}
		}
		// Restore refuses a non-empty engine and disordered items.
		if err := r.Restore(1, nil); err == nil {
			t.Fatal("Restore on a non-empty engine accepted")
		}
		bad, err := New(Options{Backends: []string{EuclideanBFName}})
		if err != nil {
			t.Fatal(err)
		}
		if err := bad.Restore(n, []RestoreItem{{ID: 5, Emb: embs[liveIDs[0]]}, {ID: 5, Emb: embs[liveIDs[0]]}}); err == nil {
			t.Fatal("Restore with duplicate ids accepted")
		}
	}
}

// TestEngineDoesNotAliasCallerEmbeddings: Add, AddBatch, Update and
// Restore copy the embedding in. The engine used to keep the caller's
// slice, so reusing a buffer between adds silently rewrote stored items.
func TestEngineDoesNotAliasCallerEmbeddings(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	const n, dim, k = 60, 16, 8
	opts := Options{Backends: []string{EuclideanBFName, VPTreeName, HammingHybridName}, Shards: 3}
	pristine := randVecs(rng, n+1, dim) // pristine[n] replaces item 5
	scribble := func(v []float64) {
		for j := range v {
			v[j] = 1e6
		}
	}
	clone := func(v []float64) []float64 { return append([]float64(nil), v...) }

	e, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]float64, dim) // one buffer reused for every single add
	for _, v := range pristine[:n/2] {
		copy(buf, v)
		if _, err := e.Add(buf, hamming.Code{}); err != nil {
			t.Fatal(err)
		}
	}
	batch := make([][]float64, 0, n/2)
	for _, v := range pristine[n/2 : n] {
		batch = append(batch, clone(v))
	}
	if _, err := e.AddBatch(batch, nil); err != nil {
		t.Fatal(err)
	}
	copy(buf, pristine[n])
	if err := e.Update(5, buf, hamming.Code{}); err != nil {
		t.Fatal(err)
	}
	scribble(buf)
	for _, v := range batch {
		scribble(v)
	}
	want := append([][]float64(nil), pristine[:n]...)
	want[5] = pristine[n]

	items := make([]RestoreItem, n)
	for id := range items {
		items[id] = RestoreItem{ID: id, Emb: clone(want[id])}
	}
	r, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Restore(n, items); err != nil {
		t.Fatal(err)
	}
	for _, it := range items {
		scribble(it.Emb)
	}

	fresh, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fresh.AddBatch(want, nil); err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string]*Engine{"mutated": e, "restored": r} {
		for id := range want {
			if emb, ok := got.Embedding(id, nil); !ok || !reflect.DeepEqual(emb, want[id]) {
				t.Fatalf("%s: Embedding(%d) = %v, want %v", name, id, emb, want[id])
			}
		}
		for _, backend := range opts.Backends {
			for qi, v := range randVecs(rng, 5, dim) {
				q := Query{Emb: v, Code: hamming.FromSigns(v)}
				a, err := searchWith(got, backend, q, k)
				if err != nil {
					t.Fatal(err)
				}
				b, err := searchWith(fresh, backend, q, k)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(a, b) {
					t.Fatalf("%s %s query %d: %v, a fresh build answers %v", name, backend, qi, a, b)
				}
			}
		}
	}
	// What Embedding returns is the caller's to modify.
	emb, _ := e.Embedding(0, nil)
	scribble(emb)
	if again, _ := e.Embedding(0, nil); !reflect.DeepEqual(again, want[0]) {
		t.Fatalf("Embedding(0) = %v after the caller modified its copy, want %v", again, want[0])
	}
}

// TestAddBatchAppliedPrefix locks AddBatch's failure contract: an item
// rejected mid-batch returns the ids already assigned — the applied
// prefix — not nil.
func TestAddBatchAppliedPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	e, err := New(Options{Backends: []string{EuclideanBFName}, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	batch := randVecs(rng, 4, 8)
	batch[2] = batch[2][:5] // wrong dimension: rejected after two items landed
	ids, err := e.AddBatch(batch, nil)
	if err == nil || !reflect.DeepEqual(ids, []int{0, 1}) {
		t.Fatalf("AddBatch with a bad third item = (%v, %v), want the applied prefix [0 1] and an error", ids, err)
	}
	if e.Len() != 2 {
		t.Fatalf("Len = %d after a batch that applied two items", e.Len())
	}
}

// --- benchmarks feeding BENCH_mutable.json (scripts/ci.sh) ---

// benchEngine builds an engine with n seeded items on every production
// backend.
func benchEngine(b *testing.B, n, dim int, compactAt float64) *Engine {
	b.Helper()
	rng := rand.New(rand.NewSource(71))
	e, err := New(Options{Backends: allBackends, Shards: 4, CompactAt: compactAt})
	if err != nil {
		b.Fatal(err)
	}
	for _, v := range randVecs(rng, n, dim) {
		if _, err := e.Add(v, hamming.FromSigns(v)); err != nil {
			b.Fatal(err)
		}
	}
	return e
}

// BenchmarkMutableAdd measures steady-state ingestion across all five
// backends (the per-item cost of the mutable index's write path).
func BenchmarkMutableAdd(b *testing.B) {
	e := benchEngine(b, 1024, 16, -1)
	rng := rand.New(rand.NewSource(73))
	vecs := randVecs(rng, 1024, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Add(vecs[i%len(vecs)], hamming.Code{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMutableDelete measures tombstoning with compaction disabled —
// the pure cost of a delete, uncontaminated by rebuilds.
func BenchmarkMutableDelete(b *testing.B) {
	e := benchEngine(b, b.N+1024, 16, -1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Delete(i); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMutableCompaction measures one full compaction of a 2048-item
// engine with half its items tombstoned (per-op cost of the rebuild).
func BenchmarkMutableCompaction(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e := benchEngine(b, 2048, 16, -1)
		for id := 0; id < 2048; id += 2 {
			if err := e.Delete(id); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		if err := e.Compact(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMutableSearchWithTombstones measures the read-path overhead
// of the k+deadN over-fetch at 25% tombstone density.
func BenchmarkMutableSearchWithTombstones(b *testing.B) {
	e := benchEngine(b, 2048, 16, -1)
	for id := 0; id < 2048; id += 4 {
		if err := e.Delete(id); err != nil {
			b.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(79))
	v := randVecs(rng, 1, 16)[0]
	q := Query{Emb: v, Code: hamming.FromSigns(v)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rs := e.Search(q, 10); len(rs) != 10 {
			b.Fatalf("got %d results", len(rs))
		}
	}
}
