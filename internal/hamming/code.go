// Package hamming provides packed binary codes, Hamming distance, and the
// hash-table search machinery of Section V-E: brute-force Hamming scan,
// table lookup with radius expansion, and the Hamming-Hybrid strategy,
// answered by one scan over the table's distinct codes whether or not the
// radius-2 neighborhood holds k candidates.
package hamming

import (
	"fmt"
	"math/bits"
)

// Code is a packed binary hash code of fixed bit length. Bit i lives in
// word i/64 at position i%64. A set bit corresponds to sign value +1, a
// clear bit to −1 (the ±1 convention of Equation 16).
type Code struct {
	Bits  int
	Words []uint64
}

// NewCode returns an all-clear code of the given bit length.
func NewCode(bits int) Code {
	if bits <= 0 {
		panic(fmt.Sprintf("hamming: invalid bit length %d", bits))
	}
	return Code{Bits: bits, Words: make([]uint64, (bits+63)/64)}
}

// FromSigns packs a ±1 vector (any value > 0 counts as +1, the sign
// convention of Equation 16: sign(x)=1 if x>0 else −1) into a code.
func FromSigns(v []float64) Code {
	c := NewCode(len(v))
	for i, x := range v {
		if x > 0 {
			c.Words[i/64] |= 1 << (i % 64)
		}
	}
	return c
}

// Signs unpacks the code back into a ±1 float vector.
func (c Code) Signs() []float64 {
	out := make([]float64, c.Bits)
	for i := range out {
		if c.Words[i/64]&(1<<(i%64)) != 0 {
			out[i] = 1
		} else {
			out[i] = -1
		}
	}
	return out
}

// Bit reports whether bit i is set.
func (c Code) Bit(i int) bool { return c.Words[i/64]&(1<<(i%64)) != 0 }

// FlipBit returns a copy of the code with bit i flipped.
func (c Code) FlipBit(i int) Code {
	out := Code{Bits: c.Bits, Words: append([]uint64(nil), c.Words...)}
	out.Words[i/64] ^= 1 << (i % 64)
	return out
}

// Distance returns the Hamming distance between two codes of equal
// length. The panic message is a constant, not a Sprintf: formatted
// panic arguments escape to the heap on every call even when the panic
// never fires, and Distance runs once per indexed code per brute-force
// query.
//
//perf:hotpath the popcount loop is the inner kernel of every Hamming scan; one allocation or bounds check here multiplies by n codes per query
func Distance(a, b Code) int {
	if a.Bits != b.Bits {
		panic("hamming: code length mismatch in Distance")
	}
	aw, bw := a.Words, b.Words
	// Equal Bits means equal word counts; the reslice makes that visible
	// to the compiler, eliminating the bw[i] bounds check in the loop.
	bw = bw[:len(aw)]
	var d int
	for i := range aw {
		d += bits.OnesCount64(aw[i] ^ bw[i])
	}
	return d
}

// Equal reports code equality.
func Equal(a, b Code) bool {
	if a.Bits != b.Bits {
		return false
	}
	for i := range a.Words {
		if a.Words[i] != b.Words[i] {
			return false
		}
	}
	return true
}

// hexDigits is the lowercase alphabet of Key's fixed-width encoding.
const hexDigits = "0123456789abcdef"

// Key returns a string map key for a multi-word code (more than 64
// bits): the words concatenated as fixed-width lowercase hex, oldest
// word first. A code of 64 bits or fewer has its entire identity in
// Words[0], so hot-path callers must bucket by the word itself — as
// Table's fast path does, never calling Key for ≤64-bit codes — because
// Key allocates its string key on every call. Key remains correct for
// single-word codes (serialization comparisons use it), just not free.
func (c Code) Key() string {
	b := make([]byte, len(c.Words)*16)
	for wi, w := range c.Words {
		for i := 15; i >= 0; i-- {
			b[wi*16+i] = hexDigits[w&0xf]
			w >>= 4
		}
	}
	return string(b)
}

func (c Code) String() string {
	b := make([]byte, c.Bits)
	for i := 0; i < c.Bits; i++ {
		if c.Bit(i) {
			b[c.Bits-1-i] = '1'
		} else {
			b[c.Bits-1-i] = '0'
		}
	}
	return string(b)
}
