package hamming

import (
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

func randCode(rng *rand.Rand, bits int) Code {
	c := NewCode(bits)
	for i := range c.Words {
		c.Words[i] = rng.Uint64()
	}
	// Mask trailing bits beyond Bits.
	if r := bits % 64; r != 0 {
		c.Words[len(c.Words)-1] &= (1 << r) - 1
	}
	return c
}

func TestFromSignsRoundTrip(t *testing.T) {
	v := []float64{0.5, -0.1, 2, -3, 0, 1e-9}
	c := FromSigns(v)
	s := c.Signs()
	want := []float64{1, -1, 1, -1, -1, 1} // 0 maps to −1 per sign(x)=1 iff x>0
	for i := range want {
		if s[i] != want[i] {
			t.Errorf("signs[%d] = %v, want %v", i, s[i], want[i])
		}
	}
}

func TestDistanceNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, bits := range []int{8, 64, 65, 128} {
		for trial := 0; trial < 20; trial++ {
			a := randCode(rng, bits)
			b := randCode(rng, bits)
			var naive int
			for i := 0; i < bits; i++ {
				if a.Bit(i) != b.Bit(i) {
					naive++
				}
			}
			if got := Distance(a, b); got != naive {
				t.Fatalf("bits=%d: Distance %d != naive %d", bits, got, naive)
			}
		}
	}
}

func TestDistanceMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Distance(NewCode(8), NewCode(16))
}

// TestHammingInnerProductIdentity checks H(a,b) = (d_h − ⟨z_a,z_b⟩)/2, the
// identity the ranking loss of Equation 19 relies on.
func TestHammingInnerProductIdentity(t *testing.T) {
	f := func(wa, wb uint64) bool {
		a := Code{Bits: 64, Words: []uint64{wa}}
		b := Code{Bits: 64, Words: []uint64{wb}}
		h := Distance(a, b)
		// ⟨z_a, z_b⟩ as the explicit ±1 dot product.
		sa, sb := a.Signs(), b.Signs()
		var dot float64
		for i := range sa {
			dot += sa[i] * sb[i]
		}
		return h == (64-int(dot))/2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFlipBit(t *testing.T) {
	c := NewCode(70)
	d := c.FlipBit(69)
	if !d.Bit(69) || c.Bit(69) {
		t.Error("FlipBit failed or mutated receiver")
	}
	if Distance(c, d) != 1 {
		t.Errorf("distance after one flip = %d", Distance(c, d))
	}
	if !Equal(d.FlipBit(69), c) {
		t.Error("double flip != original")
	}
}

func TestEqualAndKey(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randCode(rng, 128)
	b := a.FlipBit(100)
	if Equal(a, b) {
		t.Error("different codes equal")
	}
	if a.Key() == b.Key() {
		t.Error("key collision")
	}
	if !Equal(a, a) {
		t.Error("code not equal to itself")
	}
	if Equal(NewCode(8), NewCode(16)) {
		t.Error("different lengths equal")
	}
}

func TestStringFormat(t *testing.T) {
	c := NewCode(4)
	c.Words[0] = 0b1010
	if got := c.String(); got != "1010" {
		t.Errorf("String = %q", got)
	}
}

func TestTableLookupExact(t *testing.T) {
	codes := []Code{
		FromSigns([]float64{1, 1, -1, -1}),
		FromSigns([]float64{1, 1, -1, -1}),
		FromSigns([]float64{-1, -1, 1, 1}),
	}
	tab, err := NewTable(codes)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Len() != 3 || tab.Bits() != 4 || tab.Buckets() != 2 {
		t.Errorf("Len/Bits/Buckets = %d/%d/%d", tab.Len(), tab.Bits(), tab.Buckets())
	}
	got := tab.Lookup(codes[0])
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("Lookup = %v", got)
	}
	if got := tab.Lookup(FromSigns([]float64{1, -1, 1, -1})); got != nil {
		t.Errorf("missing bucket = %v", got)
	}
}

func TestNewTableErrors(t *testing.T) {
	if _, err := NewTable(nil); err == nil {
		t.Error("empty accepted")
	}
	if _, err := NewTable([]Code{NewCode(8), NewCode(16)}); err == nil {
		t.Error("mixed lengths accepted")
	}
}

func TestLookupRadiusMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	codes := make([]Code, 200)
	for i := range codes {
		codes[i] = randCode(rng, 16) // short codes so radius-2 finds plenty
	}
	tab, err := NewTable(codes)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 10; trial++ {
		q := randCode(rng, 16)
		for radius := 0; radius <= 2; radius++ {
			got := map[int]bool{}
			for _, id := range tab.LookupRadius(q, radius) {
				got[id] = true
			}
			for id, c := range codes {
				want := Distance(q, c) <= radius
				if got[id] != want {
					t.Fatalf("radius %d: id %d in=%v want=%v", radius, id, got[id], want)
				}
			}
		}
	}
}

func TestBruteForceOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	codes := make([]Code, 100)
	for i := range codes {
		codes[i] = randCode(rng, 64)
	}
	tab, _ := NewTable(codes)
	q := randCode(rng, 64)
	ns := bruteForce(tab, q, 10)
	if len(ns) != 10 {
		t.Fatalf("len = %d", len(ns))
	}
	for i := 1; i < len(ns); i++ {
		if ns[i].Distance < ns[i-1].Distance {
			t.Error("not sorted by distance")
		}
	}
	// k beyond size clamps.
	if got := bruteForce(tab, q, 1000); len(got) != 100 {
		t.Errorf("clamped len = %d", len(got))
	}
}

func TestHybridAgreesWithBruteForceOnDistances(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	// Dense short codes: radius-2 neighborhoods hold many items, so the
	// fast path activates and must return the same top-k distances.
	codes := make([]Code, 500)
	for i := range codes {
		codes[i] = randCode(rng, 8)
	}
	tab, _ := NewTable(codes)
	var fastUsed bool
	for trial := 0; trial < 20; trial++ {
		q := randCode(rng, 8)
		hybrid, fast := tab.Hybrid(q, 10)
		fastUsed = fastUsed || fast
		bf := bruteForce(tab, q, 10)
		if len(hybrid) != len(bf) {
			t.Fatalf("len %d vs %d", len(hybrid), len(bf))
		}
		if fast {
			// Hybrid on the fast path is only exact while the k-th bf
			// distance is within radius 2; with 8-bit codes and 500 items
			// it always is.
			for i := range bf {
				if hybrid[i].Distance != bf[i].Distance {
					t.Fatalf("trial %d rank %d: hybrid %d vs bf %d", trial, i, hybrid[i].Distance, bf[i].Distance)
				}
			}
		}
	}
	if !fastUsed {
		t.Error("fast path never taken on dense codes")
	}
}

func TestTableAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	codes := make([]Code, 10)
	for i := range codes {
		codes[i] = randCode(rng, 16)
	}
	tab, err := NewTable(codes[:5])
	if err != nil {
		t.Fatal(err)
	}
	for i := 5; i < 10; i++ {
		id, err := tab.Add(codes[i])
		if err != nil {
			t.Fatal(err)
		}
		if id != i {
			t.Fatalf("Add id = %d, want %d", id, i)
		}
	}
	if tab.Len() != 10 {
		t.Fatalf("Len = %d", tab.Len())
	}
	// Added codes are findable by exact lookup and by brute force.
	found := false
	for _, id := range tab.Lookup(codes[7]) {
		if id == 7 {
			found = true
		}
	}
	if !found {
		t.Error("added code missing from its bucket")
	}
	if ns := bruteForce(tab, codes[9], 1); ns[0].ID != 9 || ns[0].Distance != 0 {
		t.Errorf("BruteForce after Add = %+v", ns[0])
	}
	// Wrong length rejected.
	if _, err := tab.Add(NewCode(8)); err == nil {
		t.Error("wrong-length Add accepted")
	}
	// Long codes path.
	longTab, err := NewTable([]Code{randCode(rng, 80)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := longTab.Add(randCode(rng, 80)); err != nil {
		t.Fatal(err)
	}
	if longTab.Len() != 2 {
		t.Error("long-code Add failed")
	}
}

func TestLongCodesUseSlowTable(t *testing.T) {
	// Codes over 64 bits exercise the string-keyed bucket path.
	rng := rand.New(rand.NewSource(9))
	codes := make([]Code, 300)
	for i := range codes {
		codes[i] = randCode(rng, 12) // dense in a 12-bit space
	}
	// Stretch to 80 bits by padding with zero words (keeps density).
	long := make([]Code, len(codes))
	for i, c := range codes {
		l := NewCode(80)
		l.Words[0] = c.Words[0]
		long[i] = l
	}
	tab, err := NewTable(long)
	if err != nil {
		t.Fatal(err)
	}
	// Exact lookup, radius lookup, brute force, and hybrid all agree with
	// the short-code semantics.
	q := long[5]
	if got := tab.Lookup(q); len(got) == 0 {
		t.Fatal("self lookup empty")
	}
	ids := tab.LookupRadius(q, 2)
	seen := map[int]bool{}
	for _, id := range ids {
		seen[id] = true
	}
	for id, c := range long {
		want := Distance(q, c) <= 2
		if seen[id] != want {
			t.Fatalf("long-code radius: id %d in=%v want=%v", id, seen[id], want)
		}
	}
	hyb, fast := tab.Hybrid(q, 5)
	bf := bruteForce(tab, q, 5)
	if fast {
		for i := range bf {
			if hyb[i].Distance != bf[i].Distance {
				t.Fatal("long-code hybrid differs from brute force")
			}
		}
	}
	if tab.Buckets() == 0 || tab.Bits() != 80 {
		t.Errorf("Buckets/Bits = %d/%d", tab.Buckets(), tab.Bits())
	}
}

func TestNewCodePanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewCode(0)
}

func TestHybridFallsBackOnSparse(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	// 64-bit random codes over few items: radius-2 neighborhoods are empty,
	// so no fast path is reported (the footnote-5 scenario) and the scan of
	// the distinct codes answers like the scan of the items.
	codes := make([]Code, 50)
	for i := range codes {
		codes[i] = randCode(rng, 64)
	}
	tab, _ := NewTable(codes)
	q := randCode(rng, 64)
	ns, fast := tab.Hybrid(q, 10)
	if fast {
		t.Error("fast path on sparse codes")
	}
	bf := bruteForce(tab, q, 10)
	for i := range bf {
		if ns[i] != bf[i] {
			t.Fatal("sparse hybrid differs from brute force")
		}
	}
}

// TestHybridConcurrentAfterUpdate is the read-path-never-writes
// contract: after Update moves an id out of a bucket and back, the
// bucket must still be ascending, so concurrent Hybrid searches for its
// code (which the engine runs under a shard's *read* lock) only read
// it. Sorting the live bucket in place — what Hybrid used to do — is a
// write-write race the detector reports here. Both key shapes (raw
// word, string) take the same mutation history, and Hybrid must equal
// BruteForce id for id afterwards.
func TestHybridConcurrentAfterUpdate(t *testing.T) {
	for _, bits := range []int{16, 80} {
		home, away := NewCode(bits), NewCode(bits)
		home.Words[0], away.Words[0] = 0x00ff, 0xff00 // 16 bits apart: away is outside home's radius 2
		codes := make([]Code, 64)
		for i := range codes {
			codes[i] = home
		}
		tab, err := NewTable(codes)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range []int{10, 40, 3} {
			if err := tab.Update(id, away); err != nil {
				t.Fatal(err)
			}
			if err := tab.Update(id, home); err != nil {
				t.Fatal(err)
			}
		}
		if err := tab.Update(63, away); err != nil {
			t.Fatal(err)
		}
		if tab.Buckets() != 2 {
			t.Fatalf("bits %d: Buckets = %d, want 2", bits, tab.Buckets())
		}
		if got := tab.Lookup(home); !sort.IntsAreSorted(got) || len(got) != 63 {
			t.Errorf("bits %d: home bucket %v, want ids 0..62 ascending", bits, got)
		}

		want := bruteForce(tab, home, 5)
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for rep := 0; rep < 50; rep++ {
					got, fast := tab.Hybrid(home, 5)
					if !fast || !reflect.DeepEqual(got, want) {
						t.Errorf("bits %d: Hybrid = %v (fast %v), want BruteForce's %v", bits, got, fast, want)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
}

// TestBucketsStayAscendingUnderMutation drives a random Add/Update
// history over dense codes and checks the write-side invariant Hybrid
// relies on — every bucket ascending — and that Hybrid's fast path still
// equals BruteForce id for id.
func TestBucketsStayAscendingUnderMutation(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	codes := make([]Code, 400)
	for i := range codes {
		codes[i] = randCode(rng, 8)
	}
	tab, err := NewTable(codes)
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 600; step++ {
		if step%4 == 0 {
			if _, err := tab.Add(randCode(rng, 8)); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if err := tab.Update(rng.Intn(tab.Len()), randCode(rng, 8)); err != nil {
			t.Fatal(err)
		}
	}
	total := 0
	for w := 0; w < 256; w++ {
		c := NewCode(8)
		c.Words[0] = uint64(w)
		ids := tab.Lookup(c)
		if !sort.IntsAreSorted(ids) {
			t.Fatalf("bucket %#x = %v, want ascending", w, ids)
		}
		total += len(ids)
	}
	if total != tab.Len() {
		t.Fatalf("buckets hold %d ids, table has %d", total, tab.Len())
	}
	for trial := 0; trial < 20; trial++ {
		q := randCode(rng, 8)
		got, fast := tab.Hybrid(q, 10)
		if want := bruteForce(tab, q, 10); !fast || !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: Hybrid = %v (fast %v), BruteForce = %v", trial, got, fast, want)
		}
	}
}
