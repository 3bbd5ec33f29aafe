package hamming

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"traj2hash/internal/topk"
)

// naiveTopK is the oracle of the threshold scan: every distance computed
// bit by bit, a full sort by (distance, id), the first k kept.
func naiveTopK(q Code, codes []Code, k int) []Neighbor {
	all := make([]Neighbor, len(codes))
	for i, c := range codes {
		d := 0
		for b := 0; b < q.Bits; b++ {
			if q.Bit(b) != c.Bit(b) {
				d++
			}
		}
		all[i] = Neighbor{ID: i, Distance: d}
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].Distance != all[b].Distance {
			return all[a].Distance < all[b].Distance
		}
		return all[a].ID < all[b].ID
	})
	if k < 0 {
		k = 0
	}
	if k > len(all) {
		k = len(all)
	}
	return all[:k]
}

// checkAgainstOracle compares the scan with the oracle for every k of
// interest, through one reused selector and result buffer.
func checkAgainstOracle(t *testing.T, label string, tab *Table, codes []Code, queries []Code) {
	t.Helper()
	var sel topk.Selector
	var dst []Neighbor
	n := len(codes)
	for _, k := range []int{0, 1, 10, n, n + 5} {
		for qi, q := range queries {
			want := naiveTopK(q, codes, k)
			dst = tab.BruteForceInto(q, k, &sel, dst)
			if len(dst) != len(want) {
				t.Fatalf("%s k=%d query %d: got %d neighbors, want %d", label, k, qi, len(dst), len(want))
			}
			for i := range want {
				if dst[i] != want[i] {
					t.Fatalf("%s k=%d query %d rank %d: got %+v, want %+v", label, k, qi, i, dst[i], want[i])
				}
			}
		}
	}
}

// oracleSet is one table under test with the mirror of its codes that
// the naive oracle reads.
type oracleSet struct {
	name  string
	tab   *Table
	codes []Code
}

// oracleSets builds the code sets both scans are pinned on, for one bit
// length: random codes, heavy ties (all-equal and two-code sets, where
// only the ascending-id rule decides), and a table that reached its
// state through a random Add/Update history. The queries include a
// stored code and a one-bit neighbor of it, so radius-2 neighborhoods
// are hit as well as missed.
func oracleSets(t *testing.T, bits int) ([]oracleSet, []Code) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(100 + bits)))
	const n = 60
	random := make([]Code, n)
	for i := range random {
		random[i] = randCode(rng, bits)
	}
	equal := make([]Code, n)
	two := make([]Code, n)
	a, b := randCode(rng, bits), randCode(rng, bits)
	for i := range equal {
		equal[i] = a
		two[i] = a
		if rng.Intn(2) == 0 {
			two[i] = b
		}
	}
	queries := []Code{randCode(rng, bits), randCode(rng, bits), NewCode(bits), a, a.FlipBit(0)}

	var sets []oracleSet
	for _, tc := range []struct {
		name  string
		codes []Code
	}{{"random", random}, {"all-equal", equal}, {"two-codes", two}} {
		tab, err := NewTable(tc.codes)
		if err != nil {
			t.Fatal(err)
		}
		sets = append(sets, oracleSet{fmt.Sprintf("bits=%d %s", bits, tc.name), tab, tc.codes})
	}

	// A mutation history: the mirror slice is the oracle's input.
	mirror := append([]Code(nil), random[:5]...)
	tab, err := NewTable(mirror)
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 150; step++ {
		c := randCode(rng, bits)
		if rng.Intn(3) == 0 {
			c = mirror[rng.Intn(len(mirror))] // force duplicates and no-op updates
		}
		if rng.Intn(2) == 0 {
			if _, err := tab.Add(c); err != nil {
				t.Fatal(err)
			}
			mirror = append(mirror, c)
		} else {
			id := rng.Intn(len(mirror))
			if err := tab.Update(id, c); err != nil {
				t.Fatal(err)
			}
			mirror[id] = c
		}
	}
	return append(sets, oracleSet{fmt.Sprintf("bits=%d mutated", bits), tab, mirror}), queries
}

// oracleBits covers every stride (1, 2, 4 words) and the partial-word
// lengths around them.
var oracleBits = []int{1, 8, 16, 63, 64, 65, 128, 200}

// TestBruteForceMatchesNaiveOracle pins the threshold scan id for id and
// distance for distance to a naive sort, over oracleSets and k from 0
// past n.
func TestBruteForceMatchesNaiveOracle(t *testing.T) {
	for _, bits := range oracleBits {
		sets, queries := oracleSets(t, bits)
		for _, set := range sets {
			checkAgainstOracle(t, set.name, set.tab, set.codes, queries)
		}
	}
}

// TestBruteForceBitsMismatchPanics: a query of another bit length is a
// caller bug and panics with the package-attributed constant message,
// for single- and multi-word tables alike.
func TestBruteForceBitsMismatchPanics(t *testing.T) {
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
			bruteForce(tab, NewCode(tc.query), 1)
		}()
	}
}

// aliasingProbe drives the three ways an index could alias its caller's
// codes — Add appending into the constructor argument's spare capacity,
// Update writing into it, and a caller editing Words it passed in — and
// fails if the caller's memory or the index's answers move.
func aliasingProbe(t *testing.T, bits int, build func([]Code) (add func(Code), update func(int, Code), nearest func(Code) Neighbor)) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(bits)))
	all := []Code{randCode(rng, bits), randCode(rng, bits), randCode(rng, bits)}
	want := []string{all[0].String(), all[1].String(), all[2].String()}
	add, update, nearest := build(all[:2])

	add(randCode(rng, bits))
	update(0, randCode(rng, bits))
	for i, c := range all {
		if c.String() != want[i] {
			t.Errorf("caller's code %d changed: %s -> %s", i, want[i], c.String())
		}
	}

	// The caller now edits a code it passed in: the index must still
	// hold (and find, at distance 0) the code it was given.
	given := Code{Bits: bits, Words: append([]uint64(nil), all[1].Words...)}
	all[1].Words[0] ^= 1
	if got := nearest(given); got.ID != 1 || got.Distance != 0 {
		t.Errorf("after the caller edited its own code, nearest(original) = %+v, want id 1 at distance 0", got)
	}
}

// TestTableDoesNotAliasCallerCodes: NewTable copies its argument.
func TestTableDoesNotAliasCallerCodes(t *testing.T) {
	for _, bits := range []int{4, 64, 100} {
		aliasingProbe(t, bits, func(codes []Code) (func(Code), func(int, Code), func(Code) Neighbor) {
			tab, err := NewTable(codes)
			if err != nil {
				t.Fatal(err)
			}
			add := func(c Code) {
				if _, err := tab.Add(c); err != nil {
					t.Fatal(err)
				}
			}
			update := func(id int, c Code) {
				if err := tab.Update(id, c); err != nil {
					t.Fatal(err)
				}
			}
			return add, update, func(q Code) Neighbor { return bruteForce(tab, q, 1)[0] }
		})
	}
}

// TestMIHDoesNotAliasCallerCodes: NewMIH copies its argument.
func TestMIHDoesNotAliasCallerCodes(t *testing.T) {
	for _, bits := range []int{4, 64, 100} {
		aliasingProbe(t, bits, func(codes []Code) (func(Code), func(int, Code), func(Code) Neighbor) {
			m, err := NewMIH(codes, 2)
			if err != nil {
				t.Fatal(err)
			}
			add := func(c Code) {
				if _, err := m.Add(c); err != nil {
					t.Fatal(err)
				}
			}
			update := func(id int, c Code) {
				if err := m.Update(id, c); err != nil {
					t.Fatal(err)
				}
			}
			return add, update, func(q Code) Neighbor { return m.Search(q, 1)[0] }
		})
	}
}
