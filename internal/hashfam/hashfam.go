// Package hashfam provides families of independent hash functions.
//
// The hash-based platform of the paper (§4) implements the MapReduce
// group-by with a series of independent hash functions h1, h2, h3, …:
// h1 partitions map output across reducers, h2 partitions a reducer's
// input into buckets, h3 groups within the in-memory bucket, h4 (and
// beyond) handle recursive partitioning. The paper uses standard
// universal hashing so the functions are independent of each other;
// this package provides exactly that: a seeded family where Fn(i)
// yields the i-th function.
package hashfam

import (
	"encoding/binary"
	"math/rand"
)

// Func is a single hash function over byte-string keys.
type Func struct {
	// Multiply–shift / Carter–Wegman style mixing constants. a0/a1 are
	// odd multipliers, b is an additive offset; together with the
	// per-function seed folded into the initial state they make the
	// family pairwise independent for fixed-length prefixes and
	// practically independent for variable-length keys.
	a0, a1, b uint64
}

// Sum64 hashes key to a 64-bit value.
func (f Func) Sum64(key []byte) uint64 {
	h := f.b
	// Process 8-byte words with distinct multipliers per round parity.
	for len(key) >= 8 {
		w := binary.LittleEndian.Uint64(key)
		h = (h ^ w) * f.a0
		h ^= h >> 29
		h *= f.a1
		key = key[8:]
	}
	if len(key) > 0 {
		var tail [8]byte
		copy(tail[:], key)
		w := binary.LittleEndian.Uint64(tail[:]) | uint64(len(key))<<56
		h = (h ^ w) * f.a1
		h ^= h >> 31
		h *= f.a0
	}
	h ^= h >> 32
	h *= 0x9e3779b97f4a7c15
	h ^= h >> 29
	return h
}

// Bucket maps key into [0, n). n must be positive.
func (f Func) Bucket(key []byte, n int) int {
	if n <= 0 {
		panic("hashfam: Bucket with non-positive n")
	}
	// Multiply-high range reduction avoids modulo bias for small n.
	return int(mulHigh(f.Sum64(key), uint64(n)))
}

// mulHigh returns the high 64 bits of a*b.
func mulHigh(a, b uint64) uint64 {
	const mask = 1<<32 - 1
	ahi, alo := a>>32, a&mask
	bhi, blo := b>>32, b&mask
	t := ahi*blo + (alo*blo)>>32
	return ahi*bhi + t>>32 + (t&mask+alo*bhi)>>32
}

// Family is a seeded, indexable family of independent hash functions.
// Fn(i) is deterministic in (seed, i). A Family is immutable after
// NewFamily and safe to share across goroutines.
type Family struct {
	seed int64
	// fns memoizes the first functions: every component asks for h1–h3
	// once per task or table rebuild, and deriving one seeds a PRNG
	// (a 607-word loop) each time.
	fns [8]Func
}

// NewFamily returns the family identified by seed.
func NewFamily(seed int64) *Family {
	fam := &Family{seed: seed}
	for i := range fam.fns {
		fam.fns[i] = fam.derive(i)
	}
	return fam
}

// Fn returns the i-th function of the family (i ≥ 0). The functions
// for distinct i are generated from disjoint PRNG streams and are
// independent for the purposes of recursive partitioning.
func (fam *Family) Fn(i int) Func {
	if uint(i) < uint(len(fam.fns)) {
		return fam.fns[i]
	}
	return fam.derive(i)
}

func (fam *Family) derive(i int) Func {
	rng := rand.New(rand.NewSource(fam.seed ^ int64(i+1)*0x5851f42d4c957f2d))
	return Func{
		a0: uint64(rng.Int63())<<1 | 1, // odd
		a1: uint64(rng.Int63())<<1 | 1, // odd
		b:  uint64(rng.Int63()) ^ uint64(rng.Int63())<<32>>1,
	}
}
