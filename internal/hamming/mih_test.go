package hamming

import (
	"math/rand"
	"testing"
)

func TestMIHConstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	codes := make([]Code, 50)
	for i := range codes {
		codes[i] = randCode(rng, 64)
	}
	m, err := NewMIH(codes, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.chunkBits) != 4 {
		t.Fatalf("chunks = %d", len(m.chunkBits))
	}
	for _, w := range m.chunkBits {
		if w != 16 {
			t.Errorf("chunk width = %d", w)
		}
	}
	// Uneven split.
	m2, err := NewMIH([]Code{randCode(rng, 70)}, 3)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, w := range m2.chunkBits {
		total += w
	}
	if total != 70 {
		t.Errorf("chunk widths sum to %d", total)
	}
}

func TestMIHErrors(t *testing.T) {
	if _, err := NewMIH(nil, 4); err == nil {
		t.Error("empty accepted")
	}
	c := NewCode(8)
	if _, err := NewMIH([]Code{c}, 0); err == nil {
		t.Error("zero chunks accepted")
	}
	if _, err := NewMIH([]Code{c}, 9); err == nil {
		t.Error("too many chunks accepted")
	}
	long := NewCode(128)
	if _, err := NewMIH([]Code{long}, 1); err == nil {
		t.Error("65+ bit chunk accepted")
	}
	if _, err := NewMIH([]Code{NewCode(8), NewCode(16)}, 2); err == nil {
		t.Error("mixed lengths accepted")
	}
}

func TestMIHSubstringsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	c := randCode(rng, 64)
	m, err := NewMIH([]Code{c}, 4)
	if err != nil {
		t.Fatal(err)
	}
	subs := m.substrings(c)
	// Reassemble and compare bit by bit.
	bit := 0
	for ci, w := range m.chunkBits {
		for b := 0; b < w; b++ {
			want := c.Bit(bit)
			got := subs[ci]&(1<<uint(b)) != 0
			if got != want {
				t.Fatalf("bit %d mismatch", bit)
			}
			bit++
		}
	}
}

// TestMIHPigeonhole: every code within distance chunks·(subRadius+1)−1
// appears among the candidates.
func TestMIHPigeonhole(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	codes := make([]Code, 400)
	for i := range codes {
		codes[i] = randCode(rng, 32)
	}
	m, err := NewMIH(codes, 4)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 10; trial++ {
		q := randCode(rng, 32)
		for subRadius := 0; subRadius <= 2; subRadius++ {
			guarantee := 4*(subRadius+1) - 1
			cands := map[int]bool{}
			for _, id := range candidates(m, q, subRadius) {
				cands[id] = true
			}
			for id, c := range codes {
				if Distance(q, c) <= guarantee && !cands[id] {
					t.Fatalf("pigeonhole violated: id %d at distance %d missing at subRadius %d",
						id, Distance(q, c), subRadius)
				}
			}
		}
	}
}

func TestMIHSearchMatchesBruteForceWhenDense(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	// Dense: 2000 codes over 16 bits — the k-th neighbor is always within
	// the pigeonhole guarantee, so MIH search is exact.
	codes := make([]Code, 2000)
	for i := range codes {
		codes[i] = randCode(rng, 16)
	}
	m, err := NewMIH(codes, 4)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := NewTable(codes)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 10; trial++ {
		q := randCode(rng, 16)
		got := m.Search(q, 10)
		want := bruteForce(tab, q, 10)
		for i := range want {
			if got[i].Distance != want[i].Distance {
				t.Fatalf("trial %d rank %d: MIH %d vs BF %d", trial, i, got[i].Distance, want[i].Distance)
			}
		}
	}
}

func TestMIHSearchSparseFallsBack(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	codes := make([]Code, 20)
	for i := range codes {
		codes[i] = randCode(rng, 64)
	}
	m, err := NewMIH(codes, 4)
	if err != nil {
		t.Fatal(err)
	}
	q := randCode(rng, 64)
	got := m.Search(q, 15)
	if len(got) != 15 {
		t.Fatalf("len = %d", len(got))
	}
	tab, _ := NewTable(codes)
	want := bruteForce(tab, q, 15)
	for i := range want {
		if got[i] != want[i] {
			t.Fatal("fallback differs from brute force")
		}
	}
}
