package hashfam

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestSum64Deterministic(t *testing.T) {
	f := NewFamily(1).Fn(0)
	a := f.Sum64([]byte("user-123"))
	b := f.Sum64([]byte("user-123"))
	if a != b {
		t.Fatalf("Sum64 not deterministic: %x vs %x", a, b)
	}
}

func TestFamilyFunctionsDiffer(t *testing.T) {
	fam := NewFamily(7)
	key := []byte("the-same-key")
	seen := make(map[uint64]int)
	for i := 0; i < 16; i++ {
		h := fam.Fn(i).Sum64(key)
		if j, dup := seen[h]; dup {
			t.Fatalf("functions %d and %d collide on %q", i, j, key)
		}
		seen[h] = i
	}
}

func TestFamilySeedChangesFunctions(t *testing.T) {
	key := []byte("k")
	if NewFamily(1).Fn(0).Sum64(key) == NewFamily(2).Fn(0).Sum64(key) {
		t.Fatal("different seeds produced identical functions")
	}
}

func TestBucketInRange(t *testing.T) {
	f := NewFamily(3).Fn(2)
	err := quick.Check(func(key []byte, n uint8) bool {
		m := int(n)%64 + 1
		b := f.Bucket(key, m)
		return b >= 0 && b < m
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestBucketPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for n=0")
		}
	}()
	NewFamily(0).Fn(0).Bucket([]byte("x"), 0)
}

// TestBucketUniformity checks that a family function distributes a
// large set of distinct string keys close to uniformly: the platform's
// hybrid-hash analysis (§4.1) assumes h2 evenly distributes data.
func TestBucketUniformity(t *testing.T) {
	f := NewFamily(11).Fn(1)
	const n = 32
	const keys = 64000
	var counts [n]int
	for i := 0; i < keys; i++ {
		counts[f.Bucket([]byte(fmt.Sprintf("key-%d", i)), n)]++
	}
	want := float64(keys) / n
	// chi-squared statistic; with 31 dof, 99.9th percentile ≈ 61.1.
	var chi2 float64
	for _, c := range counts {
		d := float64(c) - want
		chi2 += d * d / want
	}
	if chi2 > 61.1 {
		t.Fatalf("bucket distribution too skewed: chi2=%.1f counts=%v", chi2, counts)
	}
}

// TestPairIndependence spot-checks that bucket assignments under two
// different family members look independent: conditioned on h2's
// bucket, h3 should still spread keys.
func TestPairIndependence(t *testing.T) {
	fam := NewFamily(5)
	h2, h3 := fam.Fn(2), fam.Fn(3)
	const nb = 8
	joint := make(map[[2]int]int)
	const keys = 32000
	for i := 0; i < keys; i++ {
		k := []byte(fmt.Sprintf("user%07d", i))
		joint[[2]int{h2.Bucket(k, nb), h3.Bucket(k, nb)}]++
	}
	want := float64(keys) / (nb * nb)
	var chi2 float64
	for a := 0; a < nb; a++ {
		for b := 0; b < nb; b++ {
			d := float64(joint[[2]int{a, b}]) - want
			chi2 += d * d / want
		}
	}
	// 63 dof, 99.9th percentile ≈ 103.4.
	if chi2 > 103.4 {
		t.Fatalf("joint distribution of h2,h3 too dependent: chi2=%.1f", chi2)
	}
}

func TestAvalanche(t *testing.T) {
	// Flipping one input bit should flip roughly half the output bits.
	f := NewFamily(9).Fn(0)
	base := []byte("abcdefgh12345678")
	h0 := f.Sum64(base)
	total, n := 0, 0
	for i := range base {
		for bit := 0; bit < 8; bit++ {
			mod := append([]byte(nil), base...)
			mod[i] ^= 1 << bit
			total += popcount64(h0 ^ f.Sum64(mod))
			n++
		}
	}
	avg := float64(total) / float64(n)
	if math.Abs(avg-32) > 4 {
		t.Fatalf("poor avalanche: avg flipped bits %.2f (want ≈32)", avg)
	}
}

func popcount64(x uint64) int {
	n := 0
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}

// TestFnPinned pins Fn(0..5) for two seeds to the constants the
// per-call derivation produced before functions were memoized per
// Family (generated at commit 4c7735d): partitioning, and so every
// golden, depends on these bits.
func TestFnPinned(t *testing.T) {
	want := map[int64][6]Func{
		1: {
			{0xb8268b8f40cf40bb, 0x82e11371e41ef0f1, 0x24d8e557e91ec29c},
			{0xd4f2d9e23a657dc1, 0xd0f9f1eb7706615, 0x347431de639842da},
			{0xf176512ce917b3d7, 0x9de53650a35228d9, 0x2a0543cc6463f2d5},
			{0x43f1d97a94bb0ba9, 0xdbd0aed1a89b22eb, 0x5765669d9044eae0},
			{0x2bcad643bfc237e3, 0xda2601a98a6feefd, 0x3061a8d48de6c402},
			{0x7d1650b2f4248fb5, 0xf804cba0db4e2951, 0x37c761b70097dba9},
		},
		0x0fa57 ^ 42: {
			{0x6523076db4031d25, 0x2f59ba629e50fa03, 0x729ea427f561992e},
			{0xd5a9828cdc4883d, 0x73cf17b3c9f0d9cb, 0x57af228d87319bd2},
			{0x51cad77661dfabd1, 0x3dfa3494ef3e5ad3, 0x3f6fef5c145d8ef0},
			{0xa8f0dabbf8968f1f, 0xdcb187a0aa6d73e9, 0x61648e278ba1ab7},
			{0xc8d2ab7dc5fd35c5, 0x69cfd6a80e7aff5b, 0x3b4617ea462d28a9},
			{0x82b210e56b0cbdb5, 0x62cdc70d120b8e21, 0x693587453d06196d},
		},
	}
	for seed, fns := range want {
		fam := NewFamily(seed)
		for i, w := range fns {
			if got := fam.Fn(i); got != w {
				t.Errorf("seed %#x: Fn(%d) = %#x, want %#x", seed, i, got, w)
			}
		}
		// Past the memoized prefix the function is derived on demand,
		// by the same rule.
		if i := len(fam.fns) + 3; fam.Fn(i) != fam.derive(i) || fam.Fn(i) == fam.Fn(i+1) {
			t.Errorf("seed %#x: Fn(%d) past the memo is not derive(%d)", seed, i, i)
		}
	}
}
