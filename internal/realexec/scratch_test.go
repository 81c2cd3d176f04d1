package realexec_test

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/mr"
	"repro/internal/queries"
	"repro/internal/realexec"
)

// spillJob is a sessionization job whose map and reduce buffers both
// overflow, so every platform writes spill files.
func spillJob(t testing.TB, pl engine.Platform) engine.JobSpec {
	c := testCluster(testModel())
	c.MapBuffer = 4 << 10
	c.ReduceBuffer = 12 << 10
	c.Page = 1 << 10
	return engine.JobSpec{
		Input:    testClicks(t, 192<<10, 12<<10),
		Platform: pl,
		Cluster:  c,
		Hints:    mr.Hints{Km: 1, DistinctKeys: 400},
		Seed:     7,
	}
}

func newSessions() mr.Query { return queries.NewSessionization(5*time.Minute, 512, 5*time.Second) }

// openFDs counts the process's open descriptors.
func openFDs(t *testing.T) int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("cannot count descriptors: %v", err)
	}
	return len(ents)
}

// TestSpillFilesLeaveNothingBehind: a run's spill files live in one
// scratch file in os.TempDir(), unlinked as soon as it is open, so the
// directory holds nothing after (or during) a job, and closing it when
// the run returns gives the descriptor back.
func TestSpillFilesLeaveNothingBehind(t *testing.T) {
	dir := t.TempDir()
	t.Setenv("TMPDIR", dir)
	runReal(t, spillJob(t, engine.INCHash), newSessions, 2) // lazy runtime descriptors open here
	before := openFDs(t)
	for _, pl := range []engine.Platform{engine.SortMerge, engine.HOP, engine.MRHash, engine.INCHash, engine.DINCHash} {
		rep := runReal(t, spillJob(t, pl), newSessions, 2)
		if rep.MapSpillBytes+rep.ReduceSpillBytes == 0 {
			t.Fatalf("test setup: %s spilled nothing", pl)
		}
	}
	if ents, err := os.ReadDir(dir); err != nil || len(ents) != 0 {
		t.Fatalf("the temporary directory holds %d entries after the jobs (%v)", len(ents), err)
	}
	if after := openFDs(t); after != before {
		t.Fatalf("%d descriptors open before the jobs, %d after", before, after)
	}
}

// TestScratchUnavailable: with no usable temporary directory the run
// fails with an error naming it, before any task starts.
func TestScratchUnavailable(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing")
	t.Setenv("TMPDIR", missing)
	goroutines := runtime.NumGoroutine()
	job := spillJob(t, engine.SortMerge)
	job.Cluster.Parallelism = 2
	rep, err := realexec.Run(job, newSessions)
	if err == nil || rep != nil || !strings.Contains(err.Error(), missing) {
		t.Fatalf("Run returned %v, %v; want an error naming %s", rep, err, missing)
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		t.Fatalf("%d goroutines before the run, %d after", goroutines, n)
	}
}
