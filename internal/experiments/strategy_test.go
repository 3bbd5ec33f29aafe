package experiments

import (
	"math/rand"
	"sort"
	"testing"

	"traj2hash/internal/engine"
	"traj2hash/internal/hamming"
)

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
	for i, v := range randVecs(rng, n, bits) {
		out[i] = hamming.FromSigns(v)
	}
	return out
}

// mustStrategy builds a strategy or fails the test.
func mustStrategy(t *testing.T, name string, db, queries []engine.Query) *strategy {
	t.Helper()
	s, err := newStrategy(name, db, queries)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestStrategyEuclideanExactness(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	db := randVecs(rng, 50, 8)
	qs := randVecs(rng, 5, 8)
	got := mustStrategy(t, engine.EuclideanBFName, embQueries(db), embQueries(qs)).runAll(5)[0]
	dist := func(id int) float64 {
		var sum float64
		for j := range db[id] {
			d := qs[0][j] - db[id][j]
			sum += d * d
		}
		return sum
	}
	// Verify against a manual scan.
	best := 0
	for i := range db {
		if dist(i) < dist(best) {
			best = i
		}
	}
	if got[0] != best {
		t.Errorf("nearest = %d, want %d", got[0], best)
	}
	for i := 1; i < len(got); i++ {
		if dist(got[i]) < dist(got[i-1]) {
			t.Error("results not sorted")
		}
	}
}

func TestStrategyValidation(t *testing.T) {
	vec := func(xs ...float64) []engine.Query { return embQueries([][]float64{xs}) }
	rng := rand.New(rand.NewSource(8))
	codes := codeQueries(randCodes(rng, 4, 16))
	for name, c := range map[string]struct {
		backend     string
		db, queries []engine.Query
	}{
		"empty":           {engine.EuclideanBFName, nil, nil},
		"empty queries":   {engine.EuclideanBFName, vec(1, 2), nil},
		"empty codes":     {engine.MIHName, nil, codes},
		"query dim":       {engine.EuclideanBFName, vec(1, 2), vec(1)},
		"ragged db":       {engine.EuclideanBFName, append(vec(1, 2), vec(1)...), vec(1, 2)},
		"query bits":      {engine.HammingBFName, codes, codeQueries(randCodes(rng, 1, 8))},
		"unknown backend": {"bogus", vec(1, 2), vec(1, 2)},
	} {
		if _, err := newStrategy(c.backend, c.db, c.queries); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestStrategyClampsK(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	s := mustStrategy(t, engine.EuclideanBFName, embQueries(randVecs(rng, 5, 4)), embQueries(randVecs(rng, 1, 4)))
	if got := s.runAll(100)[0]; len(got) != 5 {
		t.Errorf("len = %d", len(got))
	}
}

func TestStrategyHammingBFMatchesManualScan(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	db := randCodes(rng, 80, 32)
	qs := randCodes(rng, 4, 32)
	got := mustStrategy(t, engine.HammingBFName, codeQueries(db), codeQueries(qs)).runAll(7)[1]
	want := make([]int, len(db))
	for i := range want {
		want[i] = i
	}
	sort.SliceStable(want, func(a, b int) bool {
		return hamming.Distance(qs[1], db[want[a]]) < hamming.Distance(qs[1], db[want[b]])
	})
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want[:7])
		}
	}
}

func TestStrategyHybridFastPathCounting(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	// Dense 8-bit codes: the fast path should dominate.
	s := mustStrategy(t, engine.HammingHybridName, codeQueries(randCodes(rng, 400, 8)), codeQueries(randCodes(rng, 10, 8)))
	res := s.runAll(5)
	if len(res) != 10 || len(res[0]) != 5 {
		t.Fatalf("shape = %dx%d", len(res), len(res[0]))
	}
	if n := s.fastPaths(); n == 0 || n > 10 {
		t.Errorf("fast paths = %d on 10 dense-code queries", n)
	}
}

func TestStrategyHybridSparseFallsBack(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	db := codeQueries(randCodes(rng, 30, 64))
	qs := codeQueries(randCodes(rng, 3, 64))
	s := mustStrategy(t, engine.HammingHybridName, db, qs)
	got := s.runAll(10)
	if s.fastPaths() != 0 {
		t.Error("fast path on sparse 64-bit codes")
	}
	// Fallback results equal Hamming-BF, which never reports fast paths.
	bf := mustStrategy(t, engine.HammingBFName, db, qs)
	want := bf.runAll(10)
	for qi := range want {
		for i := range want[qi] {
			if got[qi][i] != want[qi][i] {
				t.Fatal("fallback differs from BF")
			}
		}
	}
	if bf.fastPaths() != 0 {
		t.Error("Hamming-BF reported fast paths")
	}
}

func TestStrategyMIHMatchesBF(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	db := randCodes(rng, 300, 16)
	qs := randCodes(rng, 4, 16)
	got := mustStrategy(t, engine.MIHName, codeQueries(db), codeQueries(qs)).runAll(10)
	want := mustStrategy(t, engine.HammingBFName, codeQueries(db), codeQueries(qs)).runAll(10)
	for qi := range qs {
		if len(got[qi]) != len(want[qi]) {
			t.Fatalf("len %d vs %d", len(got[qi]), len(want[qi]))
		}
		// Dense 16-bit codes: MIH is exact, distances must match.
		for i := range want[qi] {
			dg := hamming.Distance(qs[qi], db[got[qi][i]])
			dw := hamming.Distance(qs[qi], db[want[qi][i]])
			if dg != dw {
				t.Fatalf("query %d rank %d: %d vs %d", qi, i, dg, dw)
			}
		}
	}
}

func TestStrategiesAgreeOnIdenticalItem(t *testing.T) {
	// Insert the query itself into the database: every strategy must rank
	// it first.
	rng := rand.New(rand.NewSource(6))
	vecs := randVecs(rng, 20, 16)
	items := make([]engine.Query, len(vecs))
	for i, v := range vecs {
		items[i] = engine.Query{Emb: v, Code: hamming.FromSigns(v)}
	}
	for _, name := range engine.BackendNames() {
		if got := mustStrategy(t, name, items, items[7:8]).runAll(1)[0]; got[0] != 7 {
			t.Errorf("%s self = %v", name, got)
		}
	}
}
