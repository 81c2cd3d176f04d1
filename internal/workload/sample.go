package workload

import (
	"math"
	"math/bits"
	"math/rand/v2"
)

// stream is the draw sequence of one chunk: a PCG generator seeded, at
// no cost, with the spec's seed and the chunk number spread by an odd
// constant, so a chunk's bytes are a function of (seed, chunk) alone.
type stream struct{ rand.PCG }

// below draws uniformly from [0, n): the high word of draw × n.
func (r *stream) below(n uint64) uint64 {
	hi, _ := bits.Mul64(r.Uint64(), n)
	return hi
}

// pick draws from an alias table with one 64-bit draw: the high word of
// draw × len(t) is the slot, the top of the low word the coin.
func (r *stream) pick(t []aliasSlot) uint64 {
	slot, coin := bits.Mul64(r.Uint64(), uint64(len(t)))
	k := uint64(t[slot].alias)
	if uint32(coin>>32) < t[slot].thresh {
		k = slot // a conditional move: the coin is as good as unpredictable
	}
	return k
}

// aliasSlot is one column of an alias table: a draw that lands on it
// keeps the slot with probability thresh/2^32 and takes alias otherwise.
type aliasSlot struct{ thresh, alias uint32 }

// newZipfTable builds, in O(n), the alias table of the distribution
// math/rand's Zipf samples by rejection: P(k) ∝ (v+k)^-s for k in
// [0, n), s >= 0. v <= 0 selects def.
func newZipfTable(s, v, def float64, n int) []aliasSlot {
	if v <= 0 {
		v = def
	}
	w := make([]float64, n)
	sum := 0.0
	for k := range w {
		w[k] = math.Pow(v+float64(k), -s)
		sum += w[k]
	}
	t := make([]aliasSlot, n)
	for k := range w {
		w[k] *= float64(n) / sum // in units of a slot's share, 1/n: the weights now average 1
		t[k] = aliasSlot{math.MaxUint32, uint32(k)}
	}
	// The weights fall with k, so of the slots still open, [g, l], l is
	// the lightest and g+1 the heaviest not yet drawn on, and together
	// they average 1: top l up from g, and whenever that leaves g below
	// 1, close g by topping it up from g+1. A slot left open is full.
	thresh := func(w float64) uint32 { return uint32(min(max(w, 0)*(1<<32), math.MaxUint32)) }
	g := 0
	for l := n - 1; l > g; l-- {
		t[l] = aliasSlot{thresh(w[l]), uint32(g)}
		w[g] -= 1 - w[l]
		for ; w[g] < 1 && g+1 < l; g++ {
			t[g] = aliasSlot{thresh(w[g]), uint32(g + 1)}
			w[g+1] -= 1 - w[g]
		}
	}
	return t
}

// putDigits writes v in decimal over dst, zero-padded to its width, two
// digits to a division.
func putDigits(dst []byte, v uint64) {
	const pairs = "00010203040506070809101112131415161718192021222324252627282930313233343536373839404142434445464748495051525354555657585960616263646566676869707172737475767778798081828384858687888990919293949596979899"
	i := len(dst)
	for ; i >= 2; i -= 2 {
		p := v % 100 * 2
		v /= 100
		dst[i-2], dst[i-1] = pairs[p], pairs[p+1]
	}
	if i == 1 {
		dst[0] = byte('0' + v%10)
	}
}
