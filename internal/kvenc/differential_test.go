package kvenc

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// The radix sort and the loser-tree merger replaced stdlib kernels
// whose output is the repo's determinism contract — every experiment
// answer depends on byte-for-byte identical sort and merge results.
// These tests hold the new kernels to the retained reference
// implementations (sortStreamStable, heapMerger) on adversarial input
// shapes: random, skewed/shared-prefix, duplicate-heavy (tie order!),
// and corrupt-tail streams.

// genStream builds a pseudorandom stream of n pairs. Values carry a
// unique sequence number so any reordering of equal keys is visible.
func genStream(rng *rand.Rand, n int, keyFn func(i int) []byte) []byte {
	var out []byte
	for i := 0; i < n; i++ {
		out = AppendPair(out, keyFn(i), []byte(fmt.Sprintf("v%06d", i)))
	}
	return out
}

func randKey(rng *rand.Rand, maxLen int) []byte {
	k := make([]byte, rng.Intn(maxLen+1))
	for i := range k {
		k[i] = byte(rng.Intn(256))
	}
	return k
}

// sortCases returns the named adversarial stream shapes.
func sortCases(seed int64, n int) map[string][]byte {
	rng := rand.New(rand.NewSource(seed))
	cases := map[string][]byte{
		"random": genStream(rng, n, func(int) []byte { return randKey(rng, 24) }),
		"skewed-shared-prefix": genStream(rng, n, func(int) []byte {
			// Long shared prefixes with a diverging tail: the worst case
			// for MSD bucketing depth.
			return append([]byte("prefix/prefix/prefix/"), randKey(rng, 4)...)
		}),
		"duplicate-heavy": genStream(rng, n, func(int) []byte {
			return []byte(fmt.Sprintf("k%02d", rng.Intn(8)))
		}),
		"empty-keys": genStream(rng, n, func(i int) []byte {
			if i%3 == 0 {
				return nil
			}
			return randKey(rng, 3)
		}),
		"prefix-pairs": genStream(rng, n, func(i int) []byte {
			// Keys that are prefixes of each other exercise the
			// key-exhausted bucket.
			base := []byte("abcdefgh")
			return base[:rng.Intn(len(base)+1)]
		}),
	}
	// Corrupt tail: a valid stream followed by garbage. Both sorts must
	// drop the tail identically.
	valid := genStream(rng, n/2, func(int) []byte { return randKey(rng, 8) })
	cases["corrupt-tail"] = append(append([]byte{}, valid...), 0xFF, 0xFE, 0x01)
	return cases
}

func TestSortStreamMatchesReference(t *testing.T) {
	for name, data := range sortCases(1, 500) {
		t.Run(name, func(t *testing.T) {
			got, gn := SortStream(data)
			want, wn := sortStreamStable(data)
			if gn != wn {
				t.Fatalf("pair count %d, reference %d", gn, wn)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("radix sort output differs from stable reference")
			}
			if !IsSorted(got) {
				t.Fatalf("output not sorted")
			}
		})
	}
}

func TestSortStreamToAppends(t *testing.T) {
	data := sortCases(2, 200)["random"]
	prefix := []byte("existing")
	out, n := SortStreamTo(append([]byte{}, prefix...), data)
	if !bytes.HasPrefix(out, prefix) {
		t.Fatalf("SortStreamTo clobbered dst prefix")
	}
	want, wn := sortStreamStable(data)
	if n != wn || !bytes.Equal(out[len(prefix):], want) {
		t.Fatalf("SortStreamTo output differs from reference")
	}
}

// drainMerger pulls a merger dry, returning the concatenated output
// and the final error.
type merger interface {
	Next() (key, val []byte, ok bool)
	Err() error
}

func drainMerger(m merger) ([]byte, error) {
	var out []byte
	for {
		k, v, ok := m.Next()
		if !ok {
			return out, m.Err()
		}
		out = AppendPair(out, k, v)
	}
}

// mergeEveryWay merges runs through each consumer of the loser tree —
// Next, MergeStreamTo (which copies pairs as they stand encoded) and
// Groups (flattened back into pairs) — and fails unless all three give
// the same stream and agree on the damage.
func mergeEveryWay(t *testing.T, runs [][]byte) ([]byte, error) {
	t.Helper()
	pairs, perr := drainMerger(NewMerger(runs))
	stream, serr := MergeStreamTo(nil, runs)
	var grouped []byte
	g := NewGroups(runs)
	for {
		key, ok := g.NextGroup()
		if !ok {
			break
		}
		for {
			v, ok := g.Next()
			if !ok {
				break
			}
			grouped = AppendPair(grouped, key, v)
		}
	}
	if !bytes.Equal(stream, pairs) || !bytes.Equal(grouped, pairs) {
		t.Fatalf("Next, MergeStreamTo and Groups merged to %d, %d and %d bytes", len(pairs), len(stream), len(grouped))
	}
	if serr != perr || g.Err() != perr {
		t.Fatalf("errors differ: Next %v, MergeStreamTo %v, Groups %v", perr, serr, g.Err())
	}
	return pairs, perr
}

// prefixRuns deals keys round-robin into k runs (values tagged with
// their position, so any reordering of equal keys shows) and sorts
// each: the shapes the merger's cached eight-byte key prefix must not
// get wrong.
func prefixRuns(k int, keys ...string) [][]byte {
	runs := make([][]byte, k)
	for i, key := range keys {
		runs[i%k] = AppendPair(runs[i%k], []byte(key), []byte(fmt.Sprintf("v%03d", i)))
	}
	for i := range runs {
		runs[i], _ = SortStream(runs[i])
	}
	return runs
}

// mergeRunSets builds named sets of runs, including heavy cross-run
// key ties (every run holds the same keys, values tagged with the run
// index, so the tie-break-by-run-index order is fully visible).
func mergeRunSets(seed int64) map[string][][]byte {
	rng := rand.New(rand.NewSource(seed))
	sets := map[string][][]byte{}

	var random [][]byte
	for r := 0; r < 7; r++ {
		run, _ := SortStream(genStream(rng, 100+rng.Intn(100), func(int) []byte { return randKey(rng, 12) }))
		random = append(random, run)
	}
	sets["random"] = random

	var ties [][]byte
	for r := 0; r < 5; r++ {
		var run []byte
		for i := 0; i < 50; i++ {
			run = AppendPair(run, []byte(fmt.Sprintf("k%02d", i/5)), []byte(fmt.Sprintf("run%d-v%02d", r, i)))
		}
		ties = append(ties, run)
	}
	sets["cross-run-ties"] = ties

	valid, _ := SortStream(genStream(rng, 60, func(int) []byte { return randKey(rng, 6) }))
	corrupt := append(append([]byte{}, valid...), 0xFF, 0x81, 0x80)
	sets["corrupt-run"] = [][]byte{valid, corrupt, ties[0]}
	sets["empty-and-nil"] = [][]byte{nil, valid, {}, ties[1]}
	sets["single"] = [][]byte{valid}
	sets["none"] = nil

	// Keys equal in their first eight bytes and beyond, differing only
	// after them, or only in length.
	sets["shared-8-byte-prefix"] = prefixRuns(3, "prefix00", "prefix00a", "prefix00b", "prefix00", "prefix00aa",
		"prefix01", "prefix0", "prefix00\x00", "prefix00b", "prefix00a")
	sets["shorter-than-8"] = prefixRuns(4, "a", "", "abc", "ab", "abcdefg", "b", "", "abcdefgh", "a", "abcdefg")
	// Equal once zero-padded to eight bytes, yet different keys.
	sets["padded-prefix-twins"] = prefixRuns(3, "ab\x00", "ab", "ab\x00\x00", "", "\x00", "ab", "\x00\x00", "ab\x00", "")
	var same []string
	for i := 0; i < 60; i++ {
		same = append(same, "samekey-samekey")
	}
	sets["equal-keys-many-runs"] = prefixRuns(20, same...)
	return sets
}

func TestMergerMatchesHeapReference(t *testing.T) {
	for name, runs := range mergeRunSets(3) {
		t.Run(name, func(t *testing.T) {
			got, gerr := mergeEveryWay(t, runs)
			want, werr := drainMerger(newHeapMerger(runs))
			if !bytes.Equal(got, want) {
				t.Fatalf("loser-tree merge differs from heap reference (%d vs %d bytes)", len(got), len(want))
			}
			if (gerr == nil) != (werr == nil) {
				t.Fatalf("error mismatch: loser tree %v, heap %v", gerr, werr)
			}
		})
	}
}

// TestMergerTieOrderIsRunOrder pins the stability contract directly:
// equal keys must surface in ascending run index order.
func TestMergerTieOrderIsRunOrder(t *testing.T) {
	var runs [][]byte
	for r := 0; r < 9; r++ {
		var run []byte
		for i := 0; i < 3; i++ {
			run = AppendPair(run, []byte("samekey"), []byte(fmt.Sprintf("r%d.%d", r, i)))
		}
		runs = append(runs, run)
	}
	m := NewMerger(runs)
	var got []string
	for {
		_, v, ok := m.Next()
		if !ok {
			break
		}
		got = append(got, string(v))
	}
	if m.Err() != nil {
		t.Fatalf("unexpected error: %v", m.Err())
	}
	i := 0
	for r := 0; r < 9; r++ {
		for j := 0; j < 3; j++ {
			want := fmt.Sprintf("r%d.%d", r, j)
			if got[i] != want {
				t.Fatalf("position %d: got %q, want %q (tie order broken)", i, got[i], want)
			}
			i++
		}
	}
}

func FuzzSortStreamDifferential(f *testing.F) {
	for _, data := range sortCases(4, 40) {
		f.Add(data)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		got, gn := SortStream(data)
		want, wn := sortStreamStable(data)
		if gn != wn || !bytes.Equal(got, want) {
			t.Fatalf("radix sort diverged from reference on %q", data)
		}
	})
}

func FuzzMergeDifferential(f *testing.F) {
	sets := mergeRunSets(5)
	f.Add(sets["random"][0], sets["cross-run-ties"][0], sets["corrupt-run"][1])
	f.Add([]byte{}, []byte{0xFF}, []byte{})
	f.Fuzz(func(t *testing.T, a, b, c []byte) {
		runs := [][]byte{a, b, c}
		got, gerr := drainMerger(NewMerger(runs))
		want, werr := drainMerger(newHeapMerger(runs))
		if !bytes.Equal(got, want) || (gerr == nil) != (werr == nil) {
			t.Fatalf("loser tree diverged from heap reference")
		}
	})
}
