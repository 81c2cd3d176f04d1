package bytestore

import (
	"math/bits"
	"sync"
)

// Buffer pool for the wall-clock hot paths (spill encode, frame
// append, merge victims, shuffle staging). A mutex-guarded
// size-classed freelist rather than sync.Pool: Put of a []byte into a
// sync.Pool boxes the slice header (one allocation per recycle),
// which would defeat the 0 allocs/op contract the allocation
// regression tests enforce. Pooling is wall-clock-only by
// construction — a recycled buffer is returned with length 0 and its
// contents are always written before they are read, and every
// virtual-time charge in the simulator is computed from data sizes,
// never from buffer identity — so Reports stay DeepEqual no matter
// how the pool is hit (the engine determinism tests check exactly
// this).
const (
	poolMinBits     = 10 // smallest class: 1 KiB
	poolMaxBits     = 26 // largest pooled buffer: 64 MiB
	poolClasses     = poolMaxBits - poolMinBits + 1
	poolPerClassCap = 32 // buffers retained per class; excess is dropped to the GC
)

type bufPool struct {
	mu      sync.Mutex
	classes [poolClasses][][]byte
}

var pool bufPool

// classFor returns the smallest size class holding n bytes, or -1 if
// n exceeds the largest class.
func classFor(n int) int {
	if n <= 1<<poolMinBits {
		return 0
	}
	c := bits.Len(uint(n-1)) - poolMinBits
	if c >= poolClasses {
		return -1
	}
	return c
}

// classOf returns the largest size class a buffer of capacity c fully
// covers, or -1 if c is below the smallest class.
func classOf(c int) int {
	if c < 1<<poolMinBits {
		return -1
	}
	k := bits.Len(uint(c)) - 1 - poolMinBits
	if k >= poolClasses {
		k = poolClasses - 1
	}
	return k
}

// Get returns a zero-length buffer with capacity at least n, recycled
// from the pool when one is available. Callers append into it and
// hand it back with Put once nothing aliases it.
func Get(n int) []byte {
	c := classFor(n)
	if c < 0 {
		return make([]byte, 0, n) // beyond the largest class: unpooled
	}
	pool.mu.Lock()
	if l := pool.classes[c]; len(l) > 0 {
		b := l[len(l)-1]
		l[len(l)-1] = nil
		pool.classes[c] = l[:len(l)-1]
		pool.mu.Unlock()
		return b[:0]
	}
	pool.mu.Unlock()
	return make([]byte, 0, 1<<(uint(c)+poolMinBits))
}

// Put recycles a buffer for a future Get. The caller must not retain
// any alias of b (including sub-slices stored elsewhere); Put of a
// still-referenced buffer is the classic recycled-buffer corruption
// bug, so call sites hand buffers back only once the data has been
// copied out or consumed — under -race every byte up to cap(b) is
// poisoned here to make such a bug loud. Putting nil or a tiny buffer
// is a no-op; classes keep at most poolPerClassCap buffers and drop
// the rest to the GC.
func Put(b []byte) {
	if raceEnabled {
		b = b[:cap(b)]
		for i := range b {
			b[i] = Poison
		}
	}
	c := classOf(cap(b))
	if c < 0 {
		return
	}
	pool.mu.Lock()
	if l := pool.classes[c]; len(l) < poolPerClassCap {
		if l == nil {
			l = make([][]byte, 0, poolPerClassCap)
		}
		pool.classes[c] = append(l, b)
	}
	pool.mu.Unlock()
}

// Poison is the byte a recycled buffer holds under -race.
const Poison = 0xA5

// Grow returns b with room for n more bytes. When b lacks the room its
// contents move to a pooled buffer at least twice its capacity and b
// goes back to the pool, so only an owner that lent no view of b may
// grow it this way.
func Grow(b []byte, n int) []byte {
	if len(b)+n <= cap(b) {
		return b
	}
	nb := append(Get(max(2*cap(b), len(b)+n)), b...)
	Put(b)
	return nb
}
