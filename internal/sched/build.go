package sched

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/cost"
	"repro/internal/engine"
	"repro/internal/mr"
	"repro/internal/queries"
	"repro/internal/realexec"
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

// BuildJob translates a normalized, validated JobSpec into the engine
// job plus the query factory the real backend needs. The query, hints
// and input come from the same catalogue cmd/onepass resolves through
// (queries.Resolve), so a scheduled run and a direct CLI run of the
// same spec produce bit-identical answer-stable Reports.
func BuildJob(s JobSpec) (engine.JobSpec, func() mr.Query, error) {
	scale, err := cost.ParseScale(s.Scale)
	if err != nil {
		return engine.JobSpec{}, nil, err
	}
	platform, err := engine.ParsePlatform(s.Platform)
	if err != nil {
		return engine.JobSpec{}, nil, err
	}
	combMode, err := engine.ParseNodeCombineMode(s.NodeCombine)
	if err != nil {
		return engine.JobSpec{}, nil, err
	}

	m := cost.Default(scale)
	cluster := engine.PaperCluster(m)
	if s.Nodes > 0 {
		cluster.Nodes = s.Nodes
	}
	if s.Reducers > 0 {
		cluster.R = s.Reducers
	}
	cluster.Parallelism = s.Workers

	plan, err := queries.Resolve(s.Query, queries.Sizing{
		StateBytes: s.StateBytes, Users: s.Users,
		DataBytes: s.DataBytes, ChunkBytes: s.ChunkBytes, Seed: s.Seed,
	}, m)
	if err != nil {
		return engine.JobSpec{}, nil, err
	}

	job := engine.JobSpec{
		Input:           plan.Input,
		Platform:        platform,
		Cluster:         cluster,
		Hints:           plan.Hints,
		ScanEvery:       4096,
		Seed:            s.Seed,
		CheckpointEvery: time.Duration(s.CheckpointEvery),
		NodeCombine:     combMode,
		AggFanIn:        s.AggFanIn,
	}
	return job, plan.NewQuery, nil
}

// EngineExecutor executes jobs on the platform engine, honoring
// spec.Backend.
type EngineExecutor struct{}

// Run implements Executor. Resumed runs on an incremental platform
// model the scheduler's own death as an engine node kill: a clean
// probe run measures the makespan, then the re-execution checkpoints
// reducer state and kills a node mid-job, so the reducers restore from
// their newest checkpoint and replay only the unconsumed suffix, the
// engine's own node-loss recovery —
// Report.RecoveryReadBytes then reports the true replay suffix, which
// stays below a from-scratch recomputation, while answers remain
// bit-identical. Non-incremental platforms have no reducer state to
// restore and simply re-run.
func (EngineExecutor) Run(ctx context.Context, spec JobSpec, resume *ResumeInfo) (*engine.Report, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	job, newQuery, err := BuildJob(spec)
	if err != nil {
		return nil, err
	}
	platform := job.Platform

	runOnce := func(j engine.JobSpec) (*engine.Report, error) {
		switch spec.Backend {
		case "sim":
			j.Query = newQuery()
			return engine.Run(j)
		case "real":
			workers := spec.Workers
			if workers == 0 {
				workers = runtime.GOMAXPROCS(0)
			}
			return realexec.Run(realexec.Spec{Job: j, NewQuery: newQuery, Workers: workers})
		default:
			return nil, fmt.Errorf("unknown backend %q", spec.Backend)
		}
	}

	if resume == nil || !platform.Incremental() {
		return runOnce(job)
	}

	// Probe for the clean makespan so the injected kill lands mid-job
	// on any spec, then re-execute through the checkpointed path.
	probe, err := runOnce(job)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	resumed := job
	if resumed.CheckpointEvery <= 0 {
		// Checkpoint after every consumed map output: the resume must
		// replay from the newest possible state, not whatever a coarse
		// timer happened to capture before the interruption.
		resumed.CheckpointEvery = time.Nanosecond
	}
	switch spec.Backend {
	case "sim":
		// Kill late in the map phase with a responsive failure
		// detector — the shape of the engine's own recovery suite —
		// so the lost reducers hold real checkpointed progress and the
		// restart happens while the job is still running.
		mf := probe.MapFinishTime
		resumed.Faults.KillNodes = map[int]time.Duration{1: mf * 3 / 4}
		resumed.Faults.HeartbeatInterval = mf / 100
		resumed.Faults.HeartbeatTimeout = mf / 25
	case "real":
		resumed.Faults.KillAtMapProgress = map[int]float64{1: 0.75}
	}
	return runOnce(resumed)
}
