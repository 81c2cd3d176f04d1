package realexec_test

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/mr"
	"repro/internal/queries"
)

// TestJobAllocBudget is engine.TestJobAllocBudget's INC-hash row on the
// wall-clock backend: the same fixed-seed sessionization job, with
// overflow keys spilled to buckets and one bucket repartitioned, on one
// worker, must stay under a committed number of heap objects and bytes
// allocated per job. Chunks, table arenas, bucket files and the
// collector's staging are drawn from bytestore and handed back when
// their attempt ends, so a job that leaves one to the GC again moves
// the byte count well past the 10 % headroom. The ceilings are the
// values measured under the race detector plus 10 %.
func TestJobAllocBudget(t *testing.T) {
	c := testCluster(testModel())
	c.ReduceBuffer = 12 << 10 // force reduce-side spills
	c.Page = 1 << 10
	newQ := func() mr.Query { return queries.NewSessionization(5*time.Minute, 512, 5*time.Second) }
	spec := engine.JobSpec{
		Input:    testClicks(t, 192<<10, 12<<10),
		Platform: engine.INCHash,
		Cluster:  c,
		Hints:    mr.Hints{Km: 1, DistinctKeys: 400},
		Seed:     7,
	}
	runReal(t, spec, newQ, 1) // warm the buffer pool and lazy runtime state
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rep := runReal(t, spec, newQ, 1)
	runtime.ReadMemStats(&after)
	allocs := after.Mallocs - before.Mallocs
	mb := float64(after.TotalAlloc-before.TotalAlloc) / 1e6
	t.Logf("%d objects, %.3f MB allocated per job", allocs, mb)
	if rep.ReduceSpillBytes == 0 {
		t.Fatal("test setup: the reduce buffer forced no spill")
	}
	// 1,774–1,787 objects and 1.100–1.101 MB under the detector (1,728
	// and 1.095 without it; 3,330 and 3.134 while chunks, arenas, bucket
	// files and staging were the GC's).
	const maxAllocs, maxMB = 1966, 1.211
	if allocs > maxAllocs || mb > maxMB {
		t.Fatalf("job allocated %d objects and %.2f MB, over the budget of %d objects and %.2f MB",
			allocs, mb, maxAllocs, maxMB)
	}
}
