package engine

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/mr"
	"repro/internal/queries"
)

// TestJobAllocBudget is the job-level deterministic performance gate:
// a fixed-seed sessionization job at Parallelism 1 (compute on the
// kernel's thread alone, so the count does not depend on scheduling)
// must stay under a committed number of heap objects and bytes
// allocated per job, on each half of
// the platform matrix. Both data paths once materialised map output
// several times between Map and the shuffle (sort-merge six, the hash
// collector four, plus a fresh state per init() and cb() call); a
// regression of that kind moves these numbers by integer factors, far
// past the 10 % headroom. Ceilings are the values measured under the
// race detector plus 10 %.
func TestJobAllocBudget(t *testing.T) {
	rows := []struct {
		platform     Platform
		reduceBuffer int64
		allocs       uint64
		mb           float64
	}{
		// 2,083–2,090 objects and 1.07–1.11 MB under the detector (1,933
		// and 1.003 without it; 2,899 and 2,743 objects while the final
		// reduce ran on the process and boxed an iterator per group, 3,698
		// before the buffers were handed over).
		{SortMerge, 16 << 10, 2299, 1.221},
		// A reduce buffer small enough that overflow keys spill to buckets
		// and one bucket is repartitioned. 2,305–2,332 objects and
		// 1.153–1.165 MB under the detector (2,253 and 1.149 without it;
		// 3,915 and 3.282 before chunks, arenas, bucket files and staging
		// went back to the pool; 15,100 and 5.328, 14,160 and 5.070
		// before init() and cb() wrote into their callers' buffers and
		// map output was staged and scattered once).
		{INCHash, 12 << 10, 2565, 1.282},
		// The same spec on DINC-hash: 2,149–2,213 objects and 1.385–1.391
		// MB under the detector (2,070 and 1.359 without it). The parent's
		// map-based FREQUENT summary, an object per monitored key, its
		// key and its state, took 9,262 objects and 1.042 MB, so it breaks
		// the object ceiling; the table takes more bytes, for the arenas
		// its compactions leave to the GC.
		{DINCHash, 12 << 10, 2434, 1.530},
	}
	for _, row := range rows {
		t.Run(row.platform.String(), func(t *testing.T) {
			c := testCluster(testModel())
			c.ReduceBuffer = row.reduceBuffer // force reduce-side spills
			c.Page = 1 << 10
			c.Parallelism = 1
			spec := JobSpec{
				Query:    queries.NewSessionization(5*time.Minute, 512, 5*time.Second),
				Input:    testClicks(t, 192<<10, 12<<10),
				Platform: row.platform,
				Cluster:  c,
				Hints:    mr.Hints{Km: 1, DistinctKeys: 400},
				Seed:     7,
			}
			if _, err := Run(spec); err != nil { // warm the buffer pool and lazy runtime state
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			rep, err := Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			allocs := after.Mallocs - before.Mallocs
			mb := float64(after.TotalAlloc-before.TotalAlloc) / 1e6
			t.Logf("%d objects, %.3f MB allocated per job", allocs, mb)
			if rep.ReduceSpillBytes == 0 {
				t.Fatal("test setup: the reduce buffer forced no spill")
			}
			if allocs > row.allocs || mb > row.mb {
				t.Fatalf("job allocated %d objects and %.2f MB, over the budget of %d objects and %.2f MB",
					allocs, mb, row.allocs, row.mb)
			}
		})
	}
}
