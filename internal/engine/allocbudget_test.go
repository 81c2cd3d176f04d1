package engine

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/mr"
	"repro/internal/queries"
)

// Ceilings for TestJobAllocBudget: the measured values of this job
// under the race detector (2,899 objects, 1.116 MB; 2,743 and 1.031
// without it; 3,698 and 2.74 before the buffers were handed over) plus
// 10 %.
const (
	jobAllocsCeiling  = 3189
	jobAllocMBCeiling = 1.228
)

// TestJobAllocBudget is the job-level deterministic performance gate:
// a fixed-seed sort-merge sessionization job at Parallelism 1 (compute
// inline, so the count does not depend on scheduling) must stay under a
// committed number of heap objects and bytes allocated per job. The
// sort-merge data path once materialised map output six times between
// Map and the shuffle; a regression of that kind moves these numbers
// by integer factors, far past the 10 % headroom.
func TestJobAllocBudget(t *testing.T) {
	c := testCluster(testModel())
	c.ReduceBuffer = 16 << 10 // force reduce-side spills and merges
	c.Page = 1 << 10
	c.Parallelism = 1
	spec := JobSpec{
		Query:    queries.NewSessionization(5*time.Minute, 512, 5*time.Second),
		Input:    testClicks(t, 192<<10, 12<<10),
		Platform: SortMerge,
		Cluster:  c,
		Hints:    mr.Hints{Km: 1, DistinctKeys: 400},
		Seed:     7,
	}
	if _, err := Run(spec); err != nil { // warm the buffer pool and lazy runtime state
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Run(spec); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	allocs := after.Mallocs - before.Mallocs
	mb := float64(after.TotalAlloc-before.TotalAlloc) / 1e6
	t.Logf("%d objects, %.3f MB allocated per job", allocs, mb)
	if allocs > jobAllocsCeiling || mb > jobAllocMBCeiling {
		t.Fatalf("job allocated %d objects and %.2f MB, over the budget of %d objects and %.2f MB",
			allocs, mb, jobAllocsCeiling, jobAllocMBCeiling)
	}
}
