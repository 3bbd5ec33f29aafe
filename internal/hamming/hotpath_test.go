package hamming

import (
	"math/rand"
	"testing"

	"traj2hash/internal/topk"
)

// randCodes generates n random codes of the given bit length.
func randCodes(n, bits int, seed int64) []Code {
	rng := rand.New(rand.NewSource(seed))
	codes := make([]Code, n)
	for i := range codes {
		c := NewCode(bits)
		for w := range c.Words {
			c.Words[w] = rng.Uint64()
		}
		if bits%64 != 0 {
			c.Words[len(c.Words)-1] &= (1 << uint(bits%64)) - 1
		}
		codes[i] = c
	}
	return codes
}

// bruteForce is the Hamming-BF answer computed from fresh state.
func bruteForce(tab *Table, q Code, k int) []Neighbor {
	var sel topk.Selector
	return tab.BruteForceInto(q, k, &sel, nil)
}

// candidates is the MIH candidate set computed from a fresh buffer.
func candidates(m *MIH, q Code, subRadius int) []int {
	var buf CandidateBuffer
	return m.CandidatesInto(q, subRadius, &buf)
}

// TestBruteForceIntoMatchesBruteForce checks that the buffer-reusing
// scan returns exactly the fresh-state results call after call.
func TestBruteForceIntoMatchesBruteForce(t *testing.T) {
	codes := randCodes(300, 64, 3)
	table, err := NewTable(codes)
	if err != nil {
		t.Fatal(err)
	}
	queries := randCodes(10, 64, 4)
	var sel topk.Selector
	var dst []Neighbor
	for _, q := range queries {
		want := bruteForce(table, q, 7)
		dst = table.BruteForceInto(q, 7, &sel, dst)
		if len(dst) != len(want) {
			t.Fatalf("got %d neighbors, want %d", len(dst), len(want))
		}
		for i := range dst {
			if dst[i] != want[i] {
				t.Fatalf("neighbor %d: got %+v, want %+v", i, dst[i], want[i])
			}
		}
	}
}

// TestCandidatesIntoMatchesCandidates checks that a reused
// CandidateBuffer yields the same sorted unique candidate sets as a fresh
// one across queries and radii.
func TestCandidatesIntoMatchesCandidates(t *testing.T) {
	codes := randCodes(200, 96, 5)
	m, err := NewMIH(codes, 3)
	if err != nil {
		t.Fatal(err)
	}
	queries := randCodes(8, 96, 6)
	var buf CandidateBuffer
	for _, q := range queries {
		for r := 0; r <= 2; r++ {
			want := candidates(m, q, r)
			got := m.CandidatesInto(q, r, &buf)
			if len(got) != len(want) {
				t.Fatalf("radius %d: got %d candidates, want %d", r, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("radius %d candidate %d: got %d, want %d", r, i, got[i], want[i])
				}
			}
		}
	}
}

// TestSubstringsWordwise cross-checks the word-wise chunk extraction
// against a per-bit reference on uneven chunk widths.
func TestSubstringsWordwise(t *testing.T) {
	codes := randCodes(20, 100, 8) // 100 bits / 3 chunks → widths 34, 33, 33
	m, err := NewMIH(codes, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range codes {
		got := m.substrings(c)
		bit := 0
		for ci, w := range m.chunkBits {
			var want uint64
			for b := 0; b < w; b++ {
				if c.Bit(bit) {
					want |= 1 << uint(b)
				}
				bit++
			}
			if got[ci] != want {
				t.Fatalf("chunk %d: got %#x, want %#x", ci, got[ci], want)
			}
		}
	}
}

// TestHotpathDistanceZeroAlloc locks in the //perf:hotpath contract on
// Distance.
func TestHotpathDistanceZeroAlloc(t *testing.T) {
	codes := randCodes(2, 256, 9)
	a, b := codes[0], codes[1]
	var sink int
	allocs := testing.AllocsPerRun(100, func() {
		sink += Distance(a, b)
	})
	if allocs != 0 {
		t.Fatalf("Distance allocated %v per call, want 0", allocs)
	}
	_ = sink
}

// TestHotpathBruteForceIntoZeroAlloc locks in the //perf:hotpath
// contract on the Hamming-BF scan with warm buffers.
func TestHotpathBruteForceIntoZeroAlloc(t *testing.T) {
	codes := randCodes(500, 64, 10)
	table, err := NewTable(codes)
	if err != nil {
		t.Fatal(err)
	}
	q := randCodes(1, 64, 11)[0]
	var sel topk.Selector
	var dst []Neighbor
	dst = table.BruteForceInto(q, 10, &sel, dst) // warm sel and dst
	allocs := testing.AllocsPerRun(100, func() {
		dst = table.BruteForceInto(q, 10, &sel, dst)
	})
	if allocs != 0 {
		t.Fatalf("BruteForceInto allocated %v per call, want 0", allocs)
	}
}

// TestHotpathHybridIntoZeroAlloc locks in the //perf:hotpath contract on
// the hybrid search — the default serving path — with warm buffers, for
// a query the radius-2 neighborhood answers and one it does not.
func TestHotpathHybridIntoZeroAlloc(t *testing.T) {
	codes := randCodes(500, 64, 10)
	table, err := NewTable(codes)
	if err != nil {
		t.Fatal(err)
	}
	var sel topk.Selector
	var dst []Neighbor
	for _, q := range []Code{randCodes(1, 64, 11)[0], codes[0]} {
		for _, k := range []int{10, 1} {
			dst, _ = table.HybridInto(q, k, &sel, dst) // warm sel and dst
			allocs := testing.AllocsPerRun(100, func() {
				dst, _ = table.HybridInto(q, k, &sel, dst)
			})
			if allocs != 0 {
				t.Fatalf("HybridInto(k=%d) allocated %v per call, want 0", k, allocs)
			}
		}
	}
}

// TestHotpathCandidatesIntoZeroAlloc locks in the //perf:hotpath
// contract on MIH candidate generation with a warm buffer.
func TestHotpathCandidatesIntoZeroAlloc(t *testing.T) {
	codes := randCodes(400, 96, 12)
	m, err := NewMIH(codes, 3)
	if err != nil {
		t.Fatal(err)
	}
	q := randCodes(1, 96, 13)[0]
	var buf CandidateBuffer
	m.CandidatesInto(q, 2, &buf) // warm the buffer
	allocs := testing.AllocsPerRun(100, func() {
		m.CandidatesInto(q, 2, &buf)
	})
	if allocs != 0 {
		t.Fatalf("CandidatesInto allocated %v per call, want 0", allocs)
	}
}

// BenchmarkHotpathHammingDistance measures the popcount kernel.
func BenchmarkHotpathHammingDistance(b *testing.B) {
	codes := randCodes(2, 256, 14)
	x, y := codes[0], codes[1]
	b.ReportAllocs()
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		sink += Distance(x, y)
	}
	_ = sink
}

// BenchmarkHotpathHammingBruteForce measures the steady-state
// brute-force scan (10k codes, k=10) with reused buffers.
func BenchmarkHotpathHammingBruteForce(b *testing.B) {
	codes := randCodes(10000, 64, 15)
	table, err := NewTable(codes)
	if err != nil {
		b.Fatal(err)
	}
	q := randCodes(1, 64, 16)[0]
	var sel topk.Selector
	var dst []Neighbor
	dst = table.BruteForceInto(q, 10, &sel, dst) // warm buffers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = table.BruteForceInto(q, 10, &sel, dst)
	}
}

// BenchmarkHotpathHammingHybrid measures the steady-state hybrid search
// on the brute-force benchmark's fixture (10k codes, k=10) with reused
// buffers: random 64-bit codes are all distinct, so the directory is as
// long as the item array and this is the hybrid's worst case.
func BenchmarkHotpathHammingHybrid(b *testing.B) {
	codes := randCodes(10000, 64, 15)
	table, err := NewTable(codes)
	if err != nil {
		b.Fatal(err)
	}
	q := randCodes(1, 64, 16)[0]
	var sel topk.Selector
	var dst []Neighbor
	dst, _ = table.HybridInto(q, 10, &sel, dst) // warm buffers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst, _ = table.HybridInto(q, 10, &sel, dst)
	}
}

// BenchmarkHotpathMIHCandidates measures steady-state MIH candidate
// generation at substring radius 2 with a reused buffer.
func BenchmarkHotpathMIHCandidates(b *testing.B) {
	codes := randCodes(10000, 96, 17)
	m, err := NewMIH(codes, 3)
	if err != nil {
		b.Fatal(err)
	}
	q := randCodes(1, 96, 18)[0]
	var buf CandidateBuffer
	m.CandidatesInto(q, 2, &buf) // warm the buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.CandidatesInto(q, 2, &buf)
	}
}
