package topk

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestSelectMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(200)
		k := 1 + rng.Intn(60)
		dists := make([]float64, n)
		for i := range dists {
			dists[i] = float64(rng.Intn(40)) // ints force tie-breaking
		}
		got := SelectSlice(dists, k)

		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(a, b int) bool {
			if dists[idx[a]] != dists[idx[b]] {
				return dists[idx[a]] < dists[idx[b]]
			}
			return idx[a] < idx[b]
		})
		want := k
		if want > n {
			want = n
		}
		if len(got) != want {
			t.Fatalf("len = %d, want %d", len(got), want)
		}
		for i := 0; i < want; i++ {
			if got[i].ID != idx[i] {
				t.Fatalf("trial %d rank %d: got id %d (d=%v), want %d (d=%v)",
					trial, i, got[i].ID, got[i].Dist, idx[i], dists[idx[i]])
			}
		}
	}
}

// TestSelectTieDeterminism is the regression test for the deterministic
// tie-break contract: under equal distances the smallest ids win and the
// output is sorted by (Dist, ID) ascending. The engine's cross-backend
// parity (sharded merge == single scan, MIH == Hamming-BF) depends on
// this holding on both heap paths — initial fill (n ≤ k) and root
// replacement (n > k).
func TestSelectTieDeterminism(t *testing.T) {
	// Pure ties, n > k: stresses the replacement path — every item after
	// the fill ties with the heap root and must evict larger ids.
	got := Select(1000, 10, func(int) float64 { return 5 })
	if len(got) != 10 {
		t.Fatalf("len = %d", len(got))
	}
	for i, it := range got {
		if it.ID != i || it.Dist != 5 {
			t.Fatalf("rank %d = %+v, want id %d", i, it, i)
		}
	}
	// Pure ties, n ≤ k: the fill path must come out id-sorted too.
	got = Select(8, 20, func(int) float64 { return 1 })
	for i, it := range got {
		if it.ID != i {
			t.Fatalf("fill path rank %d = %+v", i, it)
		}
	}
	// Grouped ties with the winning group arriving last: ids of the
	// smallest distance group are selected in ascending order.
	got = Select(90, 6, func(i int) float64 { return float64(2 - i/30) })
	for i, it := range got {
		if it.ID != 60+i || it.Dist != 0 {
			t.Fatalf("grouped rank %d = %+v, want id %d dist 0", i, it, 60+i)
		}
	}
	// Identical calls are bitwise identical (full determinism).
	a := Select(500, 25, func(i int) float64 { return float64(i % 7) })
	b := Select(500, 25, func(i int) float64 { return float64(i % 7) })
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic at rank %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestSelectEdgeCases(t *testing.T) {
	if got := SelectSlice(nil, 5); got != nil {
		t.Errorf("empty input = %v", got)
	}
	if got := SelectSlice([]float64{1, 2}, 0); got != nil {
		t.Errorf("k=0 = %v", got)
	}
	got := SelectSlice([]float64{3}, 10)
	if len(got) != 1 || got[0].ID != 0 {
		t.Errorf("k>n = %v", got)
	}
}

func TestSelectSortedOutput(t *testing.T) {
	f := func(raw []float64) bool {
		for i, v := range raw {
			if v != v || v > 1e300 || v < -1e300 {
				raw[i] = 0
			}
		}
		got := SelectSlice(raw, 7)
		for i := 1; i < len(got); i++ {
			if got[i].Dist < got[i-1].Dist {
				return false
			}
			if got[i].Dist == got[i-1].Dist && got[i].ID < got[i-1].ID {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestStreamingMatchesSelect drives Begin/Offer/Finish directly — ids in
// ascending and in shuffled order, with and without the Worst guard a
// scan uses — and requires the closure form's exact answer on coarse
// distances that force tie-breaks, for k below, at, and past n.
func TestStreamingMatchesSelect(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var sel Selector
	for trial := 0; trial < 200; trial++ {
		n, k := rng.Intn(60), rng.Intn(70)
		dists := make([]float64, n)
		for i := range dists {
			dists[i] = float64(rng.Intn(6))
		}
		want := SelectSlice(dists, k)

		check := func(label string, got []Item) {
			t.Helper()
			if len(got) != len(want) {
				t.Fatalf("%s n=%d k=%d: got %d items, want %d", label, n, k, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s n=%d k=%d item %d: got %+v, want %+v", label, n, k, i, got[i], want[i])
				}
			}
		}

		sel.Begin(k)
		for _, id := range rng.Perm(n) {
			sel.Offer(id, dists[id])
		}
		check("shuffled", sel.Finish())

		sel.Begin(k)
		for id, d := range dists {
			if d < sel.Worst() { // exact only because ids ascend
				sel.Offer(id, d)
			}
		}
		check("guarded", sel.Finish())
	}
}
