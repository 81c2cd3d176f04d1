// Package bytestore provides byte-array based memory managers.
//
// The paper's prototype (§5) avoids the overhead of creating large
// numbers of Java objects by "placing key data structures into byte
// arrays", with byte-array memory managers for hash tables, key-value
// and key-state buffers, bitmaps, and counter tables. This package is
// the Go equivalent of the ones the platforms here use: all reducer-side state lives in flat []byte
// arenas with explicit byte budgets, so "memory is full" is an exact,
// accountable condition — the condition every spill decision in the
// hash framework (§4) hinges on.
//
// Tables in this package support insertion and in-place update but not
// deletion: MR-hash and INC-hash only ever add keys (overflow goes to
// disk buckets instead), and DINC-hash's bounded slot replacement is
// implemented separately in internal/frequent.
package bytestore

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
