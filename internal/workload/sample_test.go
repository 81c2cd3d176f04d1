package workload

import (
	"bytes"
	"fmt"
	"math"
	oldrand "math/rand"
	"sort"
	"sync"
	"testing"

	"repro/internal/bytestore"
)

// zipfShapes are the distributions the exact test walks: the click and
// corpus defaults, the catalogue's trigram vocabulary, the smallest
// pools (n = 1 has one full slot, n = 2 and 3 one or two donors), a head
// so steep that each donor is topped up by the next, and no skew at all.
var zipfShapes = []struct {
	s, v float64
	n    int
}{
	{1.2, 256, 200_000}, {1.3, 16, 20_000}, {1.05, 64, 50_000}, {1.6, 4, 5_000},
	{1.2, 256, 1}, {1.2, 256, 2}, {1.3, 16, 3}, {3, 1, 3}, {2.5, 1, 1_000}, {0, 1, 7},
}

// TestZipfTableMassIsExact needs no sampling: the probability a table
// gives k is its own slot's threshold plus the remainder of every slot
// that aliases to it, over n·2^32, and that must be (v+k)^-s ÷ Σ.
func TestZipfTableMassIsExact(t *testing.T) {
	for _, z := range zipfShapes {
		tab := newZipfTable(z.s, z.v, 1, z.n)
		if len(tab) != z.n {
			t.Fatalf("%+v: table of %d slots", z, len(tab))
		}
		mass := make([]float64, z.n)
		for k, slot := range tab {
			keep := float64(slot.thresh)
			if int(slot.alias) == k {
				keep = 1 << 32 // a full slot: the coin cannot lose
			}
			mass[k] += keep
			mass[slot.alias] += 1<<32 - keep
		}
		sum := 0.0
		for k := z.n - 1; k >= 0; k-- { // small terms first: not the builder's order
			sum += math.Pow(z.v+float64(k), -z.s)
		}
		for k, got := range mass {
			got /= float64(z.n) * (1 << 32)
			want := math.Pow(z.v+float64(k), -z.s) / sum
			if math.Abs(got-want) > 1.0/(1<<30) {
				t.Fatalf("%+v: P(%d) = %.12g, want %.12g", z, k, got, want)
			}
		}
	}
	// v <= 0 selects the default offset.
	if a, b := newZipfTable(1.2, 0, 256, 100), newZipfTable(1.2, 256, 1, 100); fmt.Sprint(a) != fmt.Sprint(b) {
		t.Error("v = 0 did not select the default offset")
	}
}

// TestPickMatchesRandZipf is the two-sample check that the alias draw
// and the rejection sampler it replaced are one distribution: over the
// click stream's URL pool, the twenty most frequent keys' frequencies
// agree within 2 %. 10^7 draws a side put the twentieth key's (p ≈
// 0.0077) two-sample deviation at 0.5 %, so 2 % is four of them; the
// draws span 10^4 chunk streams, so it holds across streams too.
func TestPickMatchesRandZipf(t *testing.T) {
	const s, v, n, chunks, perChunk = 1.3, 16, 20_000, 10_000, 1_000
	tab := newZipfTable(s, v, 1, n)
	got, want := make([]int, n), make([]int, n)
	for c := 0; c < chunks; c++ {
		var r stream
		r.Seed(42, uint64(c+1)*clickSalt)
		for i := 0; i < perChunk; i++ {
			got[r.pick(tab)]++
		}
	}
	ref := oldrand.NewZipf(oldrand.New(oldrand.NewSource(42)), s, v, n-1)
	for i := 0; i < chunks*perChunk; i++ {
		want[ref.Uint64()]++
	}
	top := make([]int, n)
	for k := range top {
		top[k] = k
	}
	sort.Slice(top, func(a, b int) bool { return want[top[a]] > want[top[b]] })
	for _, k := range top[:20] {
		if d := float64(got[k])/float64(want[k]) - 1; math.Abs(d) > 0.02 {
			t.Errorf("key %d: %d alias draws, %d rejection draws (%+.2f%%)", k, got[k], want[k], 100*d)
		}
	}
}

// TestNeighbouringStreamsAreIndependent: seeding is two words and no
// warm-up, so the scheme has to spread chunk numbers and seeds by
// itself. The first draw of 2^20 consecutive chunks' streams, and of
// chunk 0 under 2^20 consecutive seeds, must fill 16 buckets evenly
// (σ = 248 a bucket; 5σ allowed), for both generators.
func TestNeighbouringStreamsAreIndependent(t *testing.T) {
	for _, salt := range []uint64{clickSalt, docSalt} {
		var byChunk, bySeed [16]int
		for c := uint64(0); c < 1<<20; c++ {
			var r stream
			r.Seed(7, (c+1)*salt)
			byChunk[r.below(16)]++
			r.Seed(c, salt)
			bySeed[r.below(16)]++
		}
		for b := range byChunk {
			for name, n := range map[string]int{"chunks": byChunk[b], "seeds": bySeed[b]} {
				if n < 1<<16-1240 || n > 1<<16+1240 {
					t.Errorf("salt %#x: bucket %d holds %d first draws over consecutive %s, want 65536 ± 1240", salt, b, n, name)
				}
			}
		}
	}
}

func TestPutDigits(t *testing.T) {
	for width := 1; width <= 13; width++ {
		for _, v := range []uint64{0, 7, 42, 404, 9_999, 123_456, 9_999_999, 9_999_999_999_999} {
			want := fmt.Sprintf("%0*d", width, v)
			if len(want) > width {
				continue
			}
			got := bytes.Repeat([]byte{'x'}, width)
			putDigits(got, v)
			if string(got) != want {
				t.Errorf("putDigits(width %d, %d) = %q, want %q", width, v, got, want)
			}
		}
	}
}

// TestFirstChunkFromManyGoroutines: the real backend's map tasks ask a
// fresh input for chunks at once, so the lazy table build is raced for
// (run under -race) and every caller must see the finished tables.
func TestFirstChunkFromManyGoroutines(t *testing.T) {
	ds := DefaultDocSpec(1<<20, 64<<10, 7)
	serialClick, serialDoc := NewClickStream(testClickSpec()), NewDocCorpus(ds)
	click, doc := NewClickStream(testClickSpec()), NewDocCorpus(ds)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if !bytes.Equal(click.ChunkBytes(g), serialClick.ChunkBytes(g)) {
				t.Errorf("click chunk %d differs when first use is concurrent", g)
			}
			if !bytes.Equal(doc.ChunkBytes(g), serialDoc.ChunkBytes(g)) {
				t.Errorf("doc chunk %d differs when first use is concurrent", g)
			}
		}()
	}
	wg.Wait()
}

// TestChunkBytesAllocatesTheChunk: with the tables built, a chunk costs
// one allocation — its own bytes — on both generators, and none once
// the caller hands each chunk back to bytestore, as the drivers do.
func TestChunkBytesAllocatesTheChunk(t *testing.T) {
	click, doc := NewClickStream(testClickSpec()), NewDocCorpus(DefaultDocSpec(1<<20, 64<<10, 7))
	for name, chunk := range map[string]func(int) []byte{"click": click.ChunkBytes, "doc": doc.ChunkBytes} {
		chunk(0)
		if n := testing.AllocsPerRun(50, func() { chunk(1) }); n != 1 {
			t.Errorf("%s: a warm ChunkBytes allocates %.0f objects, want 1", name, n)
		}
		if n := testing.AllocsPerRun(50, func() { bytestore.Put(chunk(1)) }); n != 0 {
			t.Errorf("%s: a recycled ChunkBytes allocates %.0f objects, want 0", name, n)
		}
	}
}
