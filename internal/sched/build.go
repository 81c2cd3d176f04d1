package sched

import (
	"context"
	"time"

	"repro/internal/engine"
	"repro/internal/jobspec"
	"repro/internal/mr"
	"repro/internal/realexec"
)

// Executor runs one job to completion. resume is non-nil when the run
// re-executes a run the scheduler lost mid-flight (crash or restart);
// implementations should then recover through checkpointed reducer
// state rather than recompute from scratch where the platform allows.
type Executor interface {
	Run(ctx context.Context, spec JobSpec, resume *ResumeInfo) (*engine.Report, error)
}

// Predictor is an Executor that predicts the peak heap a run of a spec
// holds, resumed or not; the scheduler starts a run only when that fits
// its budget. An executor that is not one has its runs admitted by count
// alone.
type Predictor interface {
	Predict(spec JobSpec, resume *ResumeInfo) int64
}

// ResumeInfo describes the interrupted run being resumed.
type ResumeInfo struct {
	// PrevRunID is the interrupted run's id; Attempt the 1-based count
	// of execution attempts including this one.
	PrevRunID uint64
	Attempt   int
}

// BuildJob maps a normalized JobSpec onto the builder's parameters and
// builds it: the one chain cmd/onepass and the figures build through
// (jobspec.Build), so a scheduled run and a direct CLI run of the same
// spec produce bit-identical answer-stable Reports. Its error is the
// whole of what Validate says about the job itself.
func BuildJob(s JobSpec) (engine.JobSpec, func() mr.Query, error) {
	return jobspec.Build(jobspec.Params{
		Query: s.Query, Platform: s.Platform, Scale: s.Scale,
		DataBytes: s.DataBytes, ChunkBytes: s.ChunkBytes,
		StateBytes: s.StateBytes, Users: s.Users, Seed: s.Seed,
		Nodes: s.Nodes, Reducers: s.Reducers, Workers: s.Workers,
		NodeCombine: s.NodeCombine, AggFanIn: s.AggFanIn,
		CheckpointEvery: time.Duration(s.CheckpointEvery),
	})
}

// EngineExecutor executes jobs on the platform engine, honoring
// spec.Backend.
type EngineExecutor struct{}

// Predict implements Predictor: realexec.PeakHeap of the spec a
// real-backend run executes (BuildRun). A DES run is not predicted (0):
// its heap is the simulator's, which the wall-clock terms do not
// describe.
func (EngineExecutor) Predict(spec JobSpec, resume *ResumeInfo) int64 {
	job, newQuery, err := BuildRun(spec, resume)
	if err != nil || spec.Backend != "real" {
		return 0
	}
	n, _ := realexec.PeakHeap(job, newQuery)
	return n
}

// Run implements Executor: it runs BuildRun's job on spec.Backend.
func (EngineExecutor) Run(ctx context.Context, spec JobSpec, resume *ResumeInfo) (*engine.Report, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	backend, err := jobspec.ParseBackend(spec.Backend)
	if err != nil {
		return nil, err
	}
	job, newQuery, err := BuildRun(spec, resume)
	if err != nil {
		return nil, err
	}
	return backend(job, newQuery)
}

// BuildRun is BuildJob for one run: resume is non-nil when the run
// resumes an interrupted one, whose death is modelled as a node kill
// (jobspec.Resume) — Report.RecoveryReadBytes then reports the true
// replay suffix, which stays below a from-scratch recomputation, while
// answers remain bit-identical.
func BuildRun(spec JobSpec, resume *ResumeInfo) (engine.JobSpec, func() mr.Query, error) {
	job, newQuery, err := BuildJob(spec)
	if err == nil && resume != nil {
		jobspec.Resume(&job)
	}
	return job, newQuery, err
}
