package sched

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/engine"
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

// TestLogBytesPerJobPinned pins what one job adds to the job log —
// three records (admit, start, finish) of its job and run rows, the last
// carrying the run's profile, each its own fsync — as exact counts,
// against an executor whose Report carries a benchmark-sized trace. It
// was 321,468 bytes a job while run records kept the whole Report, and
// 2,602 in the bucket store's commits.
func TestLogBytesPerJobPinned(t *testing.T) {
	const want, wantSyncs = 2500, 3
	s, err := Open(Config{Dir: t.TempDir(), Exec: tracedExec{}, Now: func() time.Time { return time.Unix(1e9, 0) }})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 1; i <= 8; i++ {
		before := s.Metrics().Store
		j, err := s.Submit(testSpec("acme"))
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, s, j.ID, StateDone)
		after := s.Metrics().Store
		if got := after.LogAppendedBytes - before.LogAppendedBytes; got != want {
			t.Fatalf("job %d appended %d log bytes, want %d", i, got, want)
		}
		if got := after.LogSyncs - before.LogSyncs; got != wantSyncs {
			t.Fatalf("job %d took %d log syncs, want %d", i, got, wantSyncs)
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
	s.mu.Lock()
	err = s.compact()
	s.mu.Unlock()
	if err != nil {
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
// run's whole Report, trace included. A job log holding such records
// must open with no reader of its own, requeue its pending run, and
// serve the old records from Runs exactly as stored.
func TestOpensStoreWithTracedRunRecords(t *testing.T) {
	dir := t.TempDir()
	done := Job{ID: jobID(1), Spec: testSpec("acme"), State: StateDone, Runs: 1, LastRun: 1}
	queued := Job{ID: jobID(2), Spec: testSpec("acme"), State: StateQueued}
	done.Spec.Normalize()
	queued.Spec.Normalize()
	want := []*Run{{Org: "acme", JobID: done.ID, ID: 1, Attempt: 1, State: StateDone, Report: tracedReport()}}
	appendRecord(t, dir, rows{
		Jobs: []*Job{&done, &queued},
		Runs: []*Run{want[0], {Org: "acme", JobID: queued.ID, ID: 2, Attempt: 1, State: StatePending}},
	})
	if len(want) != 1 || len(want[0].Report.Spans) != 3743 {
		t.Fatalf("traced record written as %+v", want)
	}

	s, err := Open(Config{Dir: dir, Exec: newStub()})
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
