package sched

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/jobstore"
	"repro/internal/metrics"
)

// tracedReport is a Report the size of the benchmark daemon's: the
// 3,743 task spans of one sched-real-inc job, plus the 98 samples and
// progress points of a DES job's 20 s sampler over its ≈ 33 virtual
// minutes, beside a full set of counters.
func tracedReport() *engine.Report {
	r := &engine.Report{
		Query: "clickcount", Platform: "1-pass-inc-hash",
		RunningTime: 312 * time.Millisecond, MapFinishTime: 201 * time.Millisecond,
		MapCPUPerNode: 1800 * time.Second, ReduceCPUPerNode: 240 * time.Second,
		InputBytes: 236e9, MapOutputBytes: 322632695808, ReduceSpillBytes: 57980731392, OutputBytes: 412e6,
		TotalIOBytes: 617e9, TotalIORequests: 22690, MemShuffleFetches: 35800, DiskShuffleFetches: 3,
		ShuffleBytesByNode: []int64{32e9, 33e9, 31e9, 32e9, 33e9, 32e9, 31e9, 33e9, 32e9, 33e9},
		OutputRecords:      20000, MapInputRecords: 729331, MapOutputRecords: 729331,
		Workers: 2, WallTime: 312 * time.Millisecond,
	}
	for i := 0; i < 3743; i++ {
		name, kind := fmt.Sprintf("map%06d", i), "map"
		if i >= 3583 {
			name, kind = fmt.Sprintf("reduce%03d", i-3583), "reduce"
		}
		start := time.Duration(i) * 53 * time.Microsecond
		r.Spans = append(r.Spans, engine.Span{Name: name, Kind: kind, Node: i % 10, Start: start, End: start + 1317*time.Microsecond})
	}
	for i := 0; i < 98; i++ {
		t, f := time.Duration(i)*20*time.Second, float64(i)/97
		r.Samples = append(r.Samples, metrics.Sample{T: t, MapsDone: 37 * i, FetchesDone: int64(365 * i),
			FnRecords: int64(7442 * i), OutRecords: int64(204 * i), CPUUtil: 0.61 + f/10, IOWait: 0.13 - f/10, ReadMBps: 96.4 * f})
		r.Progress = append(r.Progress, metrics.ProgressPoint{T: t, Map: f, Reduce: f * f, Shuffle: f, Fn: f * f, Out: f * f * f})
	}
	return r
}

// tracedExec finishes every run at once with tracedReport.
type tracedExec struct{}

func (tracedExec) Run(context.Context, JobSpec, *ResumeInfo) (*engine.Report, error) {
	return tracedReport(), nil
}

// TestLogBytesPerJobPinned pins what one job adds to the store's commit
// log — three commits (admit, start, finish) of its job and run records,
// the last carrying the run's profile — as an exact count, against an
// executor whose Report carries a benchmark-sized trace. It was 321,468
// bytes a job while run records kept the whole Report.
func TestLogBytesPerJobPinned(t *testing.T) {
	const want = 2602
	s, err := Open(Config{Dir: t.TempDir(), Exec: tracedExec{}, Now: func() time.Time { return time.Unix(1e9, 0) }})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 1; i <= 8; i++ {
		before := s.Metrics().Store.LogAppendedBytes
		j, err := s.Submit(testSpec("acme"))
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, s, j.ID, StateDone)
		if got := s.Metrics().Store.LogAppendedBytes - before; got != want {
			t.Fatalf("job %d appended %d log bytes, want %d", i, got, want)
		}
	}
}

// BenchmarkReopenRunHistory measures a history of 1,000 done runs of
// tracedExec: the bytes of the snapshot holding it (snapshot_B) and
// what sched.Open over it costs (ns/op), which replays the snapshot and
// decodes every run record to find the ones to requeue.
func BenchmarkReopenRunHistory(b *testing.B) {
	const runs = 1000
	cfg := Config{Dir: b.TempDir(), Exec: tracedExec{}, DefaultLimits: Limits{MaxConcurrent: 1, MaxQueued: runs}}
	s, err := Open(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < runs; i++ {
		if _, err := s.Submit(testSpec("acme")); err != nil {
			b.Fatal(err)
		}
	}
	for s.Metrics().Completed < runs {
		time.Sleep(time.Millisecond)
	}
	before := s.Metrics().Store.SnapshotBytes
	if err := s.store.Compact(); err != nil {
		b.Fatal(err)
	}
	snapshot := s.Metrics().Store.SnapshotBytes - before
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := Open(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(snapshot), "snapshot_B")
}

// TestOpensStoreWithTracedRunRecords: earlier versions persisted each
// run's whole Report, trace included. A store holding such records must
// open with no reader of its own, requeue its pending run, and serve the
// old records from Runs exactly as stored.
func TestOpensStoreWithTracedRunRecords(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir, Exec: newStub()})
	if err != nil {
		t.Fatal(err)
	}
	var done, queued Job
	if err := s.store.Update(func(tx *jobstore.Tx) error {
		for _, j := range []*Job{&done, &queued} {
			id, err := nextJobID(tx)
			if err != nil {
				return err
			}
			runID, err := nextRunID(tx, "acme")
			if err != nil {
				return err
			}
			*j = Job{ID: id, Spec: testSpec("acme"), State: StateQueued}
			j.Spec.Normalize()
			run := Run{Org: "acme", JobID: id, ID: runID, Attempt: 1, State: StatePending}
			if j == &done {
				j.State, j.Runs, j.LastRun = StateDone, 1, runID
				run.State, run.Report = StateDone, tracedReport()
			}
			if err := putJob(tx, j); err != nil {
				return err
			}
			if err := putRun(tx, &run); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	var want []*Run
	err = s.store.View(func(tx *jobstore.Tx) error {
		return forEachRun(tx, done.ID+keySep, func(r *Run) error { want = append(want, r); return nil })
	})
	if err != nil || len(want) != 1 || len(want[0].Report.Spans) != 3743 {
		t.Fatalf("traced record written as %+v (%v)", want, err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s, err = Open(Config{Dir: dir, Exec: newStub()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Recovery.Jobs != 2 || s.Recovery.RequeuedRuns != 1 {
		t.Fatalf("recovery %+v, want 2 jobs and 1 requeued run", s.Recovery)
	}
	waitState(t, s, queued.ID, StateDone)
	if got, err := s.Runs(done.ID); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("reopened to runs %+v (%v), want the traced record as stored", got, err)
	}
}
