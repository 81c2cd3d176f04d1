// Package bytestore provides byte-array based memory managers.
//
// The paper's prototype (§5) avoids the overhead of creating large
// numbers of Java objects by "placing key data structures into byte
// arrays", with byte-array memory managers for hash tables, key-value
// and key-state buffers, bitmaps, and counter tables. This package is
// the Go equivalent: all reducer-side state lives in flat []byte
// arenas with explicit byte budgets, so "memory is full" is an exact,
// accountable condition — the condition every spill decision in the
// hash framework (§4) hinges on.
//
// Tables in this package support insertion and in-place update but not
// deletion: MR-hash and INC-hash only ever add keys (overflow goes to
// disk buckets instead), and DINC-hash's bounded slot replacement is
// implemented separately in internal/frequent.
package bytestore

import "fmt"

// arena is an append-only byte allocator. Offset 0 is reserved as the
// nil reference, so the first byte is wasted intentionally.
type arena struct {
	buf []byte
}

func newArena(capHint int) *arena {
	a := &arena{buf: make([]byte, 1, capHint+1)}
	return a
}

// alloc reserves n bytes and returns their offset.
func (a *arena) alloc(n int) int32 {
	off := len(a.buf)
	if off+n > 1<<31-1 {
		panic("bytestore: arena exceeds 2GB")
	}
	a.buf = append(a.buf, make([]byte, n)...)
	return int32(off)
}

// bytes returns the n bytes at off.
func (a *arena) bytes(off int32, n int) []byte {
	return a.buf[off : int(off)+n : int(off)+n]
}

// size returns the total bytes allocated.
func (a *arena) size() int64 { return int64(len(a.buf)) }

// Bitmap is a fixed-size bit set backed by a byte slice.
type Bitmap struct {
	bits []byte
	n    int
}

// NewBitmap creates a bitmap of n bits, all clear.
func NewBitmap(n int) *Bitmap {
	return &Bitmap{bits: make([]byte, (n+7)/8), n: n}
}

// Len returns the number of bits.
func (b *Bitmap) Len() int { return b.n }

// Set sets bit i.
func (b *Bitmap) Set(i int) { b.check(i); b.bits[i>>3] |= 1 << (i & 7) }

// Clear clears bit i.
func (b *Bitmap) Clear(i int) { b.check(i); b.bits[i>>3] &^= 1 << (i & 7) }

// Get reports whether bit i is set.
func (b *Bitmap) Get(i int) bool { b.check(i); return b.bits[i>>3]&(1<<(i&7)) != 0 }

// Count returns the number of set bits.
func (b *Bitmap) Count() int {
	c := 0
	for _, w := range b.bits {
		for x := w; x != 0; x &= x - 1 {
			c++
		}
	}
	return c
}

// SizeBytes returns the memory footprint of the bitmap.
func (b *Bitmap) SizeBytes() int64 { return int64(len(b.bits)) }

func (b *Bitmap) check(i int) {
	if i < 0 || i >= b.n {
		panic(fmt.Sprintf("bytestore: bitmap index %d out of range [0,%d)", i, b.n))
	}
}

// CounterTable is a flat table of int64 counters (the paper's
// "counter-based activity indicator table").
type CounterTable struct {
	c []int64
}

// NewCounterTable creates n zeroed counters.
func NewCounterTable(n int) *CounterTable { return &CounterTable{c: make([]int64, n)} }

// Add adds d to counter i and returns the new value.
func (t *CounterTable) Add(i int, d int64) int64 { t.c[i] += d; return t.c[i] }

// Get returns counter i.
func (t *CounterTable) Get(i int) int64 { return t.c[i] }

// Set sets counter i.
func (t *CounterTable) Set(i int, v int64) { t.c[i] = v }

// Len returns the number of counters.
func (t *CounterTable) Len() int { return len(t.c) }

// SizeBytes returns the memory footprint of the counters.
func (t *CounterTable) SizeBytes() int64 { return int64(len(t.c) * 8) }
