package engine

import (
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/mr"
	"repro/internal/queries"
)

// spillingSortMerge is a sort-merge sessionization job whose map and
// reduce buffers both overflow, merge passes included.
func spillingSortMerge(t *testing.T) JobSpec {
	c := testCluster(testModel())
	c.MapBuffer = 4 << 10
	c.ReduceBuffer = 12 << 10
	c.MergeFactor = 2
	return JobSpec{
		Query:    queries.NewSessionization(5*time.Minute, 512, 5*time.Second),
		Input:    testClicks(t, 192<<10, 12<<10),
		Platform: SortMerge,
		Cluster:  c,
		Hints:    mr.Hints{Km: 1, DistinctKeys: 400},
		Seed:     7,
	}
}

// TestScratchUnavailableOnTheDES: with no usable temporary directory a
// DES run fails with an error naming it, before any task starts, and
// leaves no goroutine behind.
func TestScratchUnavailableOnTheDES(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing")
	t.Setenv("TMPDIR", missing)
	goroutines := runtime.NumGoroutine()
	rep, err := Run(spillingSortMerge(t))
	if err == nil || rep != nil || !strings.Contains(err.Error(), missing) {
		t.Fatalf("Run returned %v, %v; want an error naming %s", rep, err, missing)
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		t.Fatalf("%d goroutines before the run, %d after", goroutines, n)
	}
}
