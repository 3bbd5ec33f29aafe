package topk

import (
	"math/rand"
	"testing"
)

// TestSelectorMatchesSelect checks that a reused Selector produces the
// same ranking as the one-shot Select across varying n and k, including
// shrinking k (the buffer must not leak stale entries between calls).
func TestSelectorMatchesSelect(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var sel Selector
	shapes := []struct{ n, k int }{
		{100, 10}, {50, 50}, {200, 3}, {10, 25}, {1, 1}, {64, 8},
	}
	for _, sh := range shapes {
		dists := make([]float64, sh.n)
		for i := range dists {
			dists[i] = float64(rng.Intn(20)) // coarse values force tie-breaks
		}
		want := SelectSlice(dists, sh.k)
		got := sel.Select(sh.n, sh.k, func(i int) float64 { return dists[i] })
		if len(got) != len(want) {
			t.Fatalf("n=%d k=%d: got %d items, want %d", sh.n, sh.k, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("n=%d k=%d item %d: got %+v, want %+v", sh.n, sh.k, i, got[i], want[i])
			}
		}
	}
}

// TestSelectorEmptyInputs checks the degenerate contracts.
func TestSelectorEmptyInputs(t *testing.T) {
	var sel Selector
	if got := sel.Select(0, 5, nil); got != nil {
		t.Errorf("n=0: got %v, want nil", got)
	}
	if got := sel.Select(5, 0, nil); got != nil {
		t.Errorf("k=0: got %v, want nil", got)
	}
}

// TestHotpathSelectorZeroAlloc locks in the //perf:hotpath contract on
// Selector.Select: after the first call has grown the buffer, selection
// performs zero heap allocations per call.
func TestHotpathSelectorZeroAlloc(t *testing.T) {
	const n, k = 2048, 32
	dists := make([]float64, n)
	rng := rand.New(rand.NewSource(11))
	for i := range dists {
		dists[i] = rng.Float64()
	}
	var sel Selector
	sel.Select(n, k, func(i int) float64 { return dists[i] }) // warm the buffer
	allocs := testing.AllocsPerRun(100, func() {
		sel.Select(n, k, func(i int) float64 { return dists[i] })
	})
	if allocs != 0 {
		t.Fatalf("Selector.Select allocated %v per call, want 0", allocs)
	}
}

// TestReserveMakesFirstSelectionAllocFree: a Selector reserved for k
// runs its first selection — not only the warm ones — without
// allocating.
func TestReserveMakesFirstSelectionAllocFree(t *testing.T) {
	const k = 32
	allocs := testing.AllocsPerRun(100, func() {
		var sel Selector
		sel.Reserve(k)
		sel.Begin(k)
		for id := 0; id < 2*k; id++ {
			sel.Offer(id, float64(id%7))
		}
		if len(sel.Finish()) != k {
			t.Fatal("selection lost candidates")
		}
	})
	if allocs != 1 { // the reservation itself
		t.Fatalf("a reserved selection allocated %v times, want 1", allocs)
	}
}

// BenchmarkHotpathTopKSelect measures steady-state selection with a
// reused Selector (the BENCH_hotpath.json artifact locks allocs/op at
// its recorded floor via scripts/hotpath_floors.json).
func BenchmarkHotpathTopKSelect(b *testing.B) {
	const n, k = 10000, 50
	dists := make([]float64, n)
	rng := rand.New(rand.NewSource(13))
	for i := range dists {
		dists[i] = rng.Float64()
	}
	var sel Selector
	dist := func(i int) float64 { return dists[i] }
	sel.Select(n, k, dist) // warm the buffer: measure steady state
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sel.Select(n, k, dist)
	}
}
