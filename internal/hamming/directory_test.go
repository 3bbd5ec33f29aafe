package hamming

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"traj2hash/internal/topk"
)

// checkDirectory verifies the bucket directory against a mirror of the
// table's codes: keys pairwise distinct, every id in exactly the bucket
// of its stored code, every bucket ascending and non-empty, and the map
// index in step with the directory positions.
func checkDirectory(t *testing.T, label string, tab *Table, mirror []Code) {
	t.Helper()
	if tab.Buckets() != len(tab.buckets) || tab.keys.Len() != len(tab.buckets) {
		t.Fatalf("%s: Buckets() = %d, %d keys, %d buckets", label, tab.Buckets(), tab.keys.Len(), len(tab.buckets))
	}
	if got := len(tab.fast) + len(tab.slow); got != len(tab.buckets) {
		t.Fatalf("%s: %d map entries for %d buckets", label, got, len(tab.buckets))
	}
	seenKey := map[string]bool{}
	seenID := make([]bool, len(mirror))
	for bi, ids := range tab.buckets {
		key := tab.keys.At(bi)
		if seenKey[key.Key()] {
			t.Fatalf("%s: key %s appears twice in the directory", label, key)
		}
		seenKey[key.Key()] = true
		if at, ok := tab.position(key); !ok || at != bi {
			t.Fatalf("%s: map points key %s at %d (found %v), directory has it at %d", label, key, at, ok, bi)
		}
		if len(ids) == 0 {
			t.Fatalf("%s: bucket %d is empty", label, bi)
		}
		for i, id := range ids {
			if i > 0 && ids[i-1] >= id {
				t.Fatalf("%s: bucket %d = %v, want ascending", label, bi, ids)
			}
			if id < 0 || id >= len(mirror) || seenID[id] {
				t.Fatalf("%s: bucket %d holds id %d (out of range or seen before)", label, bi, id)
			}
			seenID[id] = true
			if !Equal(mirror[id], key) || !Equal(tab.codes.At(id), key) {
				t.Fatalf("%s: id %d sits in the bucket of %s, its code is %s", label, id, key, mirror[id])
			}
		}
	}
	for id, seen := range seenID {
		if !seen {
			t.Fatalf("%s: id %d is in no bucket", label, id)
		}
	}
}

// TestDirectoryInvariants drives a random Add/Update history — dense
// 4-bit codes that share buckets, 64- and 100-bit codes that almost never
// do — and checks the directory after every step. The history must have
// emptied a bucket in the middle of the directory (the swap-remove),
// emptied the last one, and re-created a bucket that had gone.
func TestDirectoryInvariants(t *testing.T) {
	for _, bits := range []int{4, 64, 100} {
		rng := rand.New(rand.NewSource(int64(bits)))
		mirror := []Code{randCode(rng, bits), randCode(rng, bits), randCode(rng, bits)}
		tab, err := NewTable(mirror)
		if err != nil {
			t.Fatal(err)
		}
		var departed []Code // codes whose bucket left the directory at some step
		var emptiedMiddle, emptiedLast, recreated int
		for step := 0; step < 2000; step++ {
			c := randCode(rng, bits)
			if rng.Intn(3) == 0 {
				c = mirror[rng.Intn(len(mirror))] // an occupied bucket, or a no-op update
			}
			if rng.Intn(2) == 0 {
				if _, err := tab.Add(c); err != nil {
					t.Fatal(err)
				}
				mirror = append(mirror, c)
			} else {
				id := rng.Intn(len(mirror))
				comeback := false
				switch rng.Intn(4) {
				case 0: // aim at the last bucket
					id = tab.buckets[len(tab.buckets)-1][0]
				case 1: // bring a departed code back
					if len(departed) > 0 {
						c, comeback = departed[rng.Intn(len(departed))], true
					}
				}
				old := mirror[id]
				at, _ := tab.position(old)
				empties := len(tab.buckets[at]) == 1 && !Equal(old, c)
				last := at == len(tab.buckets)-1
				if _, had := tab.position(c); comeback && !had {
					recreated++
				}
				if err := tab.Update(id, c); err != nil {
					t.Fatal(err)
				}
				mirror[id] = c
				if empties {
					departed = append(departed, old)
					if last {
						emptiedLast++
					} else {
						emptiedMiddle++
					}
				}
			}
			checkDirectory(t, fmt.Sprintf("bits %d step %d", bits, step), tab, mirror)
		}
		if emptiedMiddle == 0 || emptiedLast == 0 || recreated == 0 {
			t.Errorf("bits %d: history emptied %d middle and %d last buckets and re-created %d; want each at least once",
				bits, emptiedMiddle, emptiedLast, recreated)
		}
	}
}

// TestHybridMatchesNaiveOracle pins the directory scan id for id and
// distance for distance to a naive sort over the same sets as the item
// scan, through one reused selector and result buffer, and its fast-path
// report to a naive count of the radius-2 neighborhood.
func TestHybridMatchesNaiveOracle(t *testing.T) {
	var sel topk.Selector
	var dst []Neighbor
	for _, bits := range oracleBits {
		sets, queries := oracleSets(t, bits)
		for _, set := range sets {
			n := len(set.codes)
			for _, k := range []int{1, 10, n, n + 5} {
				for qi, q := range queries {
					all := naiveTopK(q, set.codes, n)
					want := all[:min(k, n)]
					within2 := 0
					for _, nb := range all {
						if nb.Distance <= 2 {
							within2++
						}
					}
					var fast bool
					dst, fast = set.tab.HybridInto(q, k, &sel, dst)
					if len(dst) != len(want) {
						t.Fatalf("%s k=%d query %d: got %d neighbors, want %d", set.name, k, qi, len(dst), len(want))
					}
					for i := range want {
						if dst[i] != want[i] {
							t.Fatalf("%s k=%d query %d rank %d: got %+v, want %+v", set.name, k, qi, i, dst[i], want[i])
						}
					}
					if fast != (within2 >= k) {
						t.Fatalf("%s k=%d query %d: fast = %v with %d items within radius 2", set.name, k, qi, fast, within2)
					}
				}
			}
		}
	}
}

// TestHybridNonPositiveK: a non-positive k has the empty answer and is no
// fast path — it used to panic in makeslice for k < 0 and to count a
// fast path for k = 0.
func TestHybridNonPositiveK(t *testing.T) {
	tab, err := NewTable(randCodes(20, 64, 1))
	if err != nil {
		t.Fatal(err)
	}
	q := randCodes(1, 64, 2)[0]
	for _, k := range []int{0, -1, math.MinInt} {
		if ns, fast := tab.Hybrid(q, k); len(ns) != 0 || fast {
			t.Errorf("Hybrid(q, %d) = %v, fast %v; want empty and no fast path", k, ns, fast)
		}
	}
}

// TestHybridBitsMismatchPanics: a query of another bit length is a caller
// bug and panics with the package-attributed constant message, for
// single- and multi-word tables alike — whatever its padded words' own
// neighborhood holds.
func TestHybridBitsMismatchPanics(t *testing.T) {
	for _, tc := range []struct{ table, query int }{{64, 32}, {64, 128}, {128, 64}, {16, 17}} {
		tab, err := NewTable([]Code{NewCode(tc.table)})
		if err != nil {
			t.Fatal(err)
		}
		func() {
			defer func() {
				msg, ok := recover().(string)
				if !ok || !strings.HasPrefix(msg, "hamming: ") {
					t.Errorf("table %d bits, query %d bits: recovered %v, want a \"hamming: \"-prefixed panic", tc.table, tc.query, msg)
				}
			}()
			tab.Hybrid(NewCode(tc.query), 1)
		}()
	}
}
