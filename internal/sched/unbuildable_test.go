package sched

import (
	"os"
	"os/exec"
	"strings"
	"testing"

	"repro/internal/jobstore"
)

// TestOpenSurvivesUnbuildableSpec: a store written by an older binary
// may hold an acknowledged job whose spec the builder refuses — the
// workload generator used to panic on it in the run goroutine, and the
// persisted run took the daemon down again at every restart. The
// scheduler must open such a store, record the run as failed with the
// builder's reason, and open it again with nothing left to retry. The
// scheduler runs in a child process (this test, re-executed on the
// seeded directory), because the failure being pinned is a process
// death.
func TestOpenSurvivesUnbuildableSpec(t *testing.T) {
	const dirEnv = "SCHED_TEST_UNBUILDABLE_DIR"
	if dir := os.Getenv(dirEnv); dir != "" {
		for boot := 1; boot <= 2; boot++ {
			s, err := Open(Config{Dir: dir})
			if err != nil {
				t.Fatalf("boot %d: %v", boot, err)
			}
			if boot == 2 && (s.Recovery.RequeuedRuns != 0 || s.Recovery.ResumedRuns != 0) {
				t.Errorf("boot 2 retried the failed run: %+v", s.Recovery)
			}
			jobs := s.List("")
			if len(jobs) != 1 {
				t.Fatalf("boot %d: %d jobs, want 1", boot, len(jobs))
			}
			waitState(t, s, jobs[0].ID, StateFailed)
			runs, err := s.Runs(jobs[0].ID)
			if err != nil {
				t.Fatal(err)
			}
			if len(runs) != 1 || runs[0].State != StateFailed || !strings.Contains(runs[0].Error, "physical byte") {
				t.Errorf("boot %d: run history %+v, want one failed run carrying the builder's reason", boot, runs)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		}
		return
	}

	dir := t.TempDir()
	spec := JobSpec{Org: "a", Query: "clickcount", DataBytes: 1000}
	spec.Normalize()
	st, err := jobstore.Open(jobstore.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	err = st.Update(func(tx *jobstore.Tx) error {
		id, err := nextJobID(tx)
		if err != nil {
			return err
		}
		runID, err := nextRunID(tx, spec.Org)
		if err != nil {
			return err
		}
		if err := putJob(tx, &Job{ID: id, Spec: spec, State: StateQueued}); err != nil {
			return err
		}
		return putRun(tx, &Run{Org: spec.Org, JobID: id, ID: runID, Attempt: 1, State: StatePending})
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	cmd := exec.Command(os.Args[0], "-test.run=^TestOpenSurvivesUnbuildableSpec$")
	cmd.Env = append(os.Environ(), dirEnv+"="+dir)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("the scheduler did not survive a stored spec that no longer builds: %v\n%s", err, out)
	}
}
