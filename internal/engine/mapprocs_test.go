package engine

import (
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/mr"
	"repro/internal/queries"
)

// goroutinePeak wraps a query so every Map call samples the process's
// goroutine count into peak.
type goroutinePeak struct {
	mr.Query
	peak *atomic.Int64
}

func (q goroutinePeak) Map(record []byte, emit func(key, value []byte)) {
	n := int64(runtime.NumGoroutine())
	for old := q.peak.Load(); n > old && !q.peak.CompareAndSwap(old, n); old = q.peak.Load() {
	}
	q.Query.Map(record, emit)
}

// TestMapProcessesBoundedBySlots: a map task's process starts when a
// slot on its node grants it, so a job of thousands of chunks holds
// goroutines in proportion to the cluster's slots, not its chunks.
// Spawned at t = 0, every pending map task parked a coroutine of its
// own and the peak was about TotalMaps.
func TestMapProcessesBoundedBySlots(t *testing.T) {
	c := testCluster(testModel())
	c.Parallelism = 1 // the kernel's thread computes; no pool goroutine
	var peak atomic.Int64
	spec := JobSpec{
		Query:    goroutinePeak{queries.NewClickCount(), &peak},
		Input:    testClicks(t, 2100<<10, 1<<10),
		Platform: SortMerge,
		Cluster:  c,
		Seed:     7,
	}
	maps := spec.Input.NumChunks()
	if maps < 2000 {
		t.Fatalf("test setup: %d map tasks, want ≥ 2,000", maps)
	}
	base := int64(runtime.NumGoroutine())
	if _, err := Run(spec); err != nil {
		t.Fatal(err)
	}
	// Every slot's process, plus one write-behind process per node and
	// the metrics sampler.
	const allowance = 8
	limit := int64(c.Nodes*(c.MapSlots+c.ReduceSlots) + c.Nodes + allowance)
	if got := peak.Load() - base; got > limit {
		t.Fatalf("%d goroutines above the test's during a job of %d map tasks, want ≤ %d", got, maps, limit)
	}
}
