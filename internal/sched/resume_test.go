package sched

import (
	"context"
	"reflect"
	"regexp"
	"testing"

	"repro/internal/engine"
	"repro/internal/kvenc"
	"repro/internal/mr"
)

// engineSpec is a small-but-real job: ~200 KB physical input over 16
// chunks on a 3-node incremental cluster, the same shape the engine's
// own fault suite uses.
func engineSpec(org string) JobSpec {
	return JobSpec{
		Org: org, User: "ops", Query: "clickcount",
		Platform: "inc-hash", Backend: "sim",
		DataBytes: 8e8, ChunkBytes: 48e6, Scale: "1/4096",
		Nodes: 3, Reducers: 2, Seed: 7,
	}
}

// directRun executes the spec exactly as cmd/onepass would.
func directRun(t *testing.T, spec JobSpec) *engine.Report {
	t.Helper()
	spec.Normalize()
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	job, newQuery, err := BuildJob(spec)
	if err != nil {
		t.Fatal(err)
	}
	job.Query = newQuery()
	rep, err := engine.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestScheduledReportBitIdenticalToDirectRun is the acceptance tie
// between the service and the CLI: the Report a completed scheduled
// job persists in its run history must be the profile of a direct run
// of the same spec bit for bit, WallTime aside (the one field
// documented to vary with host conditions).
func TestScheduledReportBitIdenticalToDirectRun(t *testing.T) {
	spec := engineSpec("acme")
	direct := directRun(t, spec).Profile()

	s, err := Open(Config{Dir: t.TempDir(), Exec: EngineExecutor{}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, j.ID, StateDone)
	runs, err := s.Runs(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 || runs[0].Report == nil {
		t.Fatalf("run history %+v", runs)
	}
	scheduled := runs[0].Report

	direct.WallTime, scheduled.WallTime = 0, 0
	if !reflect.DeepEqual(direct, scheduled) {
		t.Fatalf("scheduled report differs from direct run: %s", engine.ReportDiff(direct, scheduled))
	}
}

// TestInterruptedRunResumesFromCheckpoints kills the scheduler while a
// run executes, reopens, and requires the resume attempt to recover
// through checkpointed reducer state: checkpoints taken, a node loss
// survived, and RecoveryReadBytes strictly below what the same
// interruption costs without checkpoints (the full-replay baseline).
func TestInterruptedRunResumesFromCheckpoints(t *testing.T) {
	dir := t.TempDir()
	spec := engineSpec("acme")

	stub := newStub()
	stub.gate = make(chan struct{})
	stub.started = make(chan string, 1)
	s, err := Open(Config{Dir: dir, Exec: stub})
	if err != nil {
		t.Fatal(err)
	}
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	<-stub.started // mid-execution
	s.Abort()      // scheduler process dies

	s2, err := Open(Config{Dir: dir, Exec: EngineExecutor{}})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Recovery.ResumedRuns != 1 {
		t.Fatalf("recovery %+v, want 1 resumed run", s2.Recovery)
	}
	waitState(t, s2, j.ID, StateDone)
	runs, err := s2.Runs(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 || runs[0].State != StateInterrupted || !runs[1].Resumed {
		t.Fatalf("run history %+v", runs)
	}
	resumed := runs[1].Report
	if resumed == nil {
		t.Fatal("resumed run has no report")
	}
	if resumed.Checkpoints == 0 || resumed.CheckpointBytes == 0 {
		t.Fatalf("resume took no checkpoints: %d ckpts, %d bytes", resumed.Checkpoints, resumed.CheckpointBytes)
	}
	if resumed.NodesLost != 1 {
		t.Fatalf("NodesLost = %d, want the injected interruption", resumed.NodesLost)
	}
	if resumed.RecoveryReadBytes <= 0 {
		t.Fatal("RecoveryReadBytes = 0: no recovery happened")
	}

	// Answers match the never-interrupted run.
	clean := directRun(t, spec)
	if resumed.OutputRecords != clean.OutputRecords || resumed.OutputBytes != clean.OutputBytes {
		t.Fatalf("resumed answers differ: %d records / %d bytes, want %d / %d",
			resumed.OutputRecords, resumed.OutputBytes, clean.OutputRecords, clean.OutputBytes)
	}

	// Full-replay baseline: the same kill at the same instant with
	// checkpointing off re-reads the whole consumed shuffle; resuming
	// from the newest checkpoint must read strictly less.
	spec.Normalize()
	job, newQuery, err := BuildJob(spec)
	if err != nil {
		t.Fatal(err)
	}
	job.Query = newQuery()
	job.Faults.KillAtMapProgress = map[int]float64{1: 0.75}
	bare, err := engine.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if bare.RecoveryReadBytes == 0 {
		t.Fatal("baseline recovery read nothing; kill plan inert")
	}
	if resumed.RecoveryReadBytes >= bare.RecoveryReadBytes {
		t.Fatalf("RecoveryReadBytes = %d with checkpoints, %d full replay: resume saved nothing",
			resumed.RecoveryReadBytes, bare.RecoveryReadBytes)
	}
}

// TestResumeOnOneNodeReruns: resuming an interrupted incremental run on
// a one-node cluster has no survivor to move the lost node's work to,
// so the executor re-runs the job clean on either backend instead of
// injecting a kill the spec cannot survive.
func TestResumeOnOneNodeReruns(t *testing.T) {
	for _, backend := range []string{"sim", "real"} {
		spec := engineSpec("acme")
		spec.Backend, spec.Nodes = backend, 1
		spec.Normalize()
		rep, err := EngineExecutor{}.Run(context.Background(), spec, &ResumeInfo{PrevRunID: 1, Attempt: 2})
		if err != nil {
			t.Fatalf("%s: resume on one node: %v", backend, err)
		}
		if rep.NodesLost != 0 || rep.OutputRecords == 0 {
			t.Errorf("%s: NodesLost = %d, OutputRecords = %d, want a clean run", backend, rep.NodesLost, rep.OutputRecords)
		}
	}
}

// panicReduce is clickcount with a reduce function that panics.
type panicReduce struct{ mr.Query }

func (panicReduce) Reduce([]byte, kvenc.ValueIter, mr.OutputWriter) { panic("bad group") }

// panicExec runs the spec on the DES with that query.
type panicExec struct{}

func (panicExec) Run(_ context.Context, spec JobSpec, _ *ResumeInfo) (*engine.Report, error) {
	job, newQuery, err := BuildJob(spec)
	if err != nil {
		return nil, err
	}
	job.Query = panicReduce{newQuery()}
	return engine.Run(job)
}

// TestReducePanicFailsTheRun: a query that panics inside a simulated
// process must end its run failed, with the process named — not take
// the scheduler's process (onepassd) down — and leave the scheduler
// serving the next job.
func TestReducePanicFailsTheRun(t *testing.T) {
	s, err := Open(Config{Dir: t.TempDir(), Exec: panicExec{}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 2; i++ {
		spec := engineSpec("acme")
		spec.Platform = "sm"
		j, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, s, j.ID, StateFailed)
		runs, err := s.Runs(j.ID)
		if err != nil {
			t.Fatal(err)
		}
		// Sort-merge runs Reduce on the compute pool, so the panic reaches
		// the process through its forked closure. Which reducer meets a
		// group first depends on the generated input; the wrapping does not.
		want := regexp.MustCompile(`^engine: clickcount on 1-pass-sm: sim: proc reduce\d{3} panicked: sim: forked closure panicked: bad group$`)
		if len(runs) != 1 || runs[0].State != StateFailed || !want.MatchString(runs[0].Error) {
			t.Fatalf("run record %+v, want failed with an error matching %s", runs[0], want)
		}
	}
}
