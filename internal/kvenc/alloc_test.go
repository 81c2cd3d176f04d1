package kvenc

import (
	"fmt"
	"testing"
)

// Allocation-regression tests: the data-plane hot paths must not
// allocate per record. A regression here does not break correctness,
// it breaks the wall-clock budget — which is why it is pinned by
// tests rather than left to profiling archaeology.

func allocTestStream(n int) []byte {
	var data []byte
	for i := 0; i < n; i++ {
		data = AppendPair(data, []byte(fmt.Sprintf("key%04d", i%97)), []byte(fmt.Sprintf("value%06d", i)))
	}
	return data
}

func TestIteratorNextAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include race-detector instrumentation")
	}
	data := allocTestStream(512)
	var sink int
	allocs := testing.AllocsPerRun(20, func() {
		it := Iterator{data: data}
		for {
			k, v, ok := it.Next()
			if !ok {
				break
			}
			sink += len(k) + len(v)
		}
	})
	if allocs != 0 {
		t.Fatalf("Iterator.Next allocated %.1f times per full scan, want 0", allocs)
	}
	_ = sink
}

func TestAppendPairAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include race-detector instrumentation")
	}
	key, val := []byte("some-key"), []byte("some-value-bytes")
	dst := make([]byte, 0, 64<<10)
	allocs := testing.AllocsPerRun(20, func() {
		dst = dst[:0]
		for i := 0; i < 1024; i++ {
			dst = AppendPair(dst, key, val)
		}
	})
	if allocs != 0 {
		t.Fatalf("AppendPair into preallocated dst allocated %.1f times, want 0", allocs)
	}
}

func TestSortStreamToSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include race-detector instrumentation")
	}
	data := allocTestStream(2048)
	dst := make([]byte, 0, len(data))
	// Warm the radix scratch pool so the steady state is measured.
	dst, _ = SortStreamTo(dst[:0], data)
	allocs := testing.AllocsPerRun(10, func() {
		dst, _ = SortStreamTo(dst[:0], data)
	})
	if allocs != 0 {
		t.Fatalf("SortStreamTo steady state allocated %.1f times per sort, want 0", allocs)
	}
}

// TestMergerNextAllocs bounds the whole merge at the merger's fixed
// setup cost: allocations must not scale with the record count, i.e.
// Next itself is allocation-free.
func TestMergerNextAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include race-detector instrumentation")
	}
	var runs [][]byte
	for r := 0; r < 8; r++ {
		run, _ := SortStream(allocTestStream(512))
		runs = append(runs, run)
	}
	var sink int
	allocs := testing.AllocsPerRun(10, func() {
		m := NewMerger(runs)
		for {
			k, v, ok := m.Next()
			if !ok {
				break
			}
			sink += len(k) + len(v)
		}
	})
	// 8 runs × 512 records each; the handful of NewMerger slice
	// allocations is the entire budget.
	if allocs > 10 {
		t.Fatalf("merging 4096 records allocated %.1f times — Next is allocating per record", allocs)
	}
	_ = sink
}

func TestMergeStreamToAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include race-detector instrumentation")
	}
	var runs [][]byte
	total := 0
	for r := 0; r < 4; r++ {
		run, _ := SortStream(allocTestStream(256))
		runs = append(runs, run)
		total += len(run)
	}
	dst := make([]byte, 0, total)
	allocs := testing.AllocsPerRun(10, func() {
		var err error
		dst, err = MergeStreamTo(dst[:0], runs)
		if err != nil {
			t.Fatal(err)
		}
	})
	// Only the merger's fixed setup may allocate.
	if allocs > 10 {
		t.Fatalf("MergeStreamTo into preallocated dst allocated %.1f times, want merger setup only", allocs)
	}
}

// TestMergerStepAllocs pins the per-pair and per-group steps of a
// running merge at zero: Next, and NextGroup with the pulls of the
// group's values (the step a final-reduce batch repeats).
func TestMergerStepAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include race-detector instrumentation")
	}
	var runs [][]byte
	for r := 0; r < 8; r++ {
		run, _ := SortStream(allocTestStream(512))
		runs = append(runs, run)
	}
	var sink int
	m := NewMerger(runs)
	if allocs := testing.AllocsPerRun(20, func() {
		for i := 0; i < 100; i++ {
			k, v, _ := m.Next()
			sink += len(k) + len(v)
		}
	}); allocs != 0 {
		t.Fatalf("Merger.Next allocated %.1f times per 100 pairs, want 0", allocs)
	}
	g := NewGroups(NewMerger(runs))
	if allocs := testing.AllocsPerRun(20, func() {
		for i := 0; i < 4; i++ {
			key, ok := g.NextGroup()
			if !ok {
				t.Fatal("ran out of groups")
			}
			for v, ok := g.Next(); ok; v, ok = g.Next() {
				sink += len(key) + len(v)
			}
		}
	}); allocs != 0 {
		t.Fatalf("a Groups step allocated %.1f times per 4 groups, want 0", allocs)
	}
	_ = sink
}
