package sched

import (
	"context"
	"time"

	"repro/internal/engine"
	"repro/internal/jobspec"
	"repro/internal/mr"
)

// Executor runs one job to completion. resume is non-nil when the run
// re-executes a run the scheduler lost mid-flight (crash or restart);
// implementations should then recover through checkpointed reducer
// state rather than recompute from scratch where the platform allows.
type Executor interface {
	Run(ctx context.Context, spec JobSpec, resume *ResumeInfo) (*engine.Report, error)
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

// Run implements Executor. Resumed runs on an incremental platform
// model the scheduler's own death as a node kill: the re-execution
// checkpoints reducer state and kills node 1 three quarters through
// the map phase, so the reducers restore from their newest checkpoint
// and replay only the unconsumed suffix, the engine's own node-loss
// recovery — Report.RecoveryReadBytes then reports the true replay
// suffix, which stays below a from-scratch recomputation, while
// answers remain bit-identical. Non-incremental platforms have no
// reducer state to restore, and a one-node cluster no survivor to
// restore it on; both simply re-run.
func (EngineExecutor) Run(ctx context.Context, spec JobSpec, resume *ResumeInfo) (*engine.Report, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	backend, err := jobspec.ParseBackend(spec.Backend)
	if err != nil {
		return nil, err
	}
	job, newQuery, err := BuildJob(spec)
	if err != nil {
		return nil, err
	}
	if resume != nil && job.Platform.Incremental() && job.Cluster.Nodes > 1 {
		if job.CheckpointEvery <= 0 {
			// Checkpoint after every consumed map output: the resume must
			// replay from the newest possible state, not whatever a coarse
			// timer happened to capture before the interruption.
			job.CheckpointEvery = time.Nanosecond
		}
		job.Faults.KillAtMapProgress = map[int]float64{1: 0.75}
	}
	return backend(job, newQuery)
}
