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
// Tables in this package support insertion, in-place update and
// deletion. MR-hash and INC-hash only ever add keys (overflow goes to
// disk buckets instead); DINC-hash's FREQUENT summary (internal/frequent)
// evicts a key by deleting it and inserting the new one. A table
// without a cap (budget 0) never refuses: the ingestion daemon's fold is
// bounded by the daemon's budget, and its scavenger deletes the keys it
// retires in place.
package bytestore

// arena is an append-only byte allocator over a pooled buffer. Offset
// 0 is reserved as the nil reference, so the first byte is wasted
// intentionally.
type arena struct {
	buf []byte
}

func newArena(capHint int) arena {
	return arena{buf: append(Get(capHint+1), 0)}
}

// alloc reserves n zeroed bytes and returns their offset. Outgrowing
// the buffer moves the arena to a pooled one at least twice as large;
// the old one is left to the GC, because views the table handed out
// (UpsertState's state, a key being looked up) may still alias it.
func (a *arena) alloc(n int) int32 {
	off := len(a.buf)
	if off+n > MaxArenaBytes {
		panic("bytestore: arena exceeds 2GB")
	}
	if off+n > cap(a.buf) {
		a.buf = append(Get(max(2*cap(a.buf), off+n)), a.buf...)
	}
	a.buf = a.buf[:off+n]
	clear(a.buf[off:])
	return int32(off)
}

// MaxArenaBytes is the most one arena holds: offsets are int32s.
const MaxArenaBytes = 1<<31 - 1

// bytes returns the n bytes at off.
func (a *arena) bytes(off int32, n int) []byte {
	return a.buf[off : int(off)+n : int(off)+n]
}

// size returns the total bytes allocated.
func (a *arena) size() int64 { return int64(len(a.buf)) }
