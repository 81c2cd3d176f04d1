// Package jobspec describes a job once. The paper fixes a job as a
// query over (D, K_m, K_r) run with tunables (R, C, F) on one platform
// (§2.3, §3.1); Params is that tuple as plain data, filled in by the
// CLI's flags, the scheduler's JSON spec and the figures alike, Build
// is the one chain from it to an engine.JobSpec, and ParseBackend the
// one place a backend name becomes a way to run it. Whatever Build
// accepts runs; whatever it cannot build it refuses with an error,
// never a panic.
package jobspec

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/cost"
	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/mr"
	"repro/internal/queries"
	"repro/internal/realexec"
)

// Params is the plain-data description of one job. Strings take the
// spellings of the onepass flags and the scheduler's JSON keys.
type Params struct {
	Query    string // catalogue name (queries.Names)
	Platform string // sm|hop|mr-hash|inc-hash|dinc-hash
	Scale    string // physical:logical ratio, "1/512" or a float in (0, 1]

	DataBytes  float64 // logical input size D
	ChunkBytes float64 // logical chunk size C
	StateBytes int     // sessionization's per-user state buffer
	Users      int     // distinct users; 0 = SessionUsers at StateBytes
	Seed       int64

	// Deltas on the paper cluster (0 keeps the paper's value).
	Nodes    int
	Reducers int // R, per node
	// MergeFactor is F: positive sets it, 0 keeps Hadoop's default, and
	// ModelF asks the §3.2 model.
	MergeFactor int
	Workers     int // compute-pool / task-pool goroutines (0 = GOMAXPROCS)

	NodeCombine     string // off|on|auto ("" = off)
	AggFanIn        int
	CheckpointEvery time.Duration
}

// ModelF as Params.MergeFactor picks the merge factor the analytical
// model predicts fastest for (DataBytes, ChunkBytes) — onepass -f 0.
const ModelF = -1

// ClusterAt returns the paper's cluster under the calibrated cost model
// at scale; like cost.Default it panics outside (0, 1].
func ClusterAt(scale float64) engine.ClusterConfig {
	return engine.PaperCluster(cost.Default(scale))
}

// SessionUsers sizes the user pool so the distinct session states
// total ~2.2× the cluster's reduce memory: the INC-hash table fills
// roughly 60% of the way through the job, where the Fig 7(a) reduce
// progress leaves the map progress.
func SessionUsers(cl engine.ClusterConfig, stateBytes int) int {
	return int(2.2 * float64(int64(cl.R*cl.Nodes)*cl.ReduceBuffer) / float64(stateBytes+50))
}

// Build turns p into the engine job plus the query factory the real
// backend needs (the simulation calls it once): scale → cost model →
// paper cluster → p's deltas, then On. The returned spec has passed
// engine.JobSpec.Validate; a caller may still set what Params does not
// say — a fault plan, checksums, the bad-record budget, a hint it knows
// better — and the backend validates that again.
func Build(p Params) (job engine.JobSpec, newQuery func() mr.Query, err error) {
	scale, err := cost.ParseScale(p.Scale)
	switch {
	case err != nil:
		return job, nil, err
	case !(scale > 0 && scale <= 1):
		return job, nil, fmt.Errorf("scale %q must be in (0, 1]", p.Scale)
	case p.Nodes < 0 || p.Reducers < 0:
		return job, nil, errors.New("nodes and reducers must be non-negative")
	}
	cl := ClusterAt(scale)
	if p.Nodes > 0 {
		cl.Nodes = p.Nodes
	}
	if p.Reducers > 0 {
		cl.R = p.Reducers
	}
	cl.Parallelism = p.Workers
	if p.MergeFactor > 0 {
		cl.MergeFactor = p.MergeFactor
	} else if p.MergeFactor < 0 {
		cl.MergeFactor = model.Optimize(
			model.Workload{D: p.DataBytes, Km: 1, Kr: 1},
			model.Hardware{N: cl.Nodes, Bm: 140e6, Br: 500e6},
			cl.R, []float64{p.ChunkBytes}, []int{4, 8, 16, 32, 64, 128},
			model.PaperConstants()).F
	}
	return p.On(cl)
}

// On is the rest of Build, for a caller (a figure) whose cluster
// differs from the paper's by more than Params can say: user pool →
// catalogue plan → engine.JobSpec on cl. Scale and p's cluster deltas
// are not read; cl.Model is the cost model.
func (p Params) On(cl engine.ClusterConfig) (job engine.JobSpec, newQuery func() mr.Query, err error) {
	platform, err := engine.ParsePlatform(p.Platform)
	if err != nil {
		return job, nil, err
	}
	combine, err := engine.ParseNodeCombineMode(p.NodeCombine)
	if err != nil {
		return job, nil, err
	}
	if p.Users < 0 || p.StateBytes < 0 {
		return job, nil, errors.New("users and state size must be non-negative")
	}
	users := p.Users
	if users == 0 {
		users = SessionUsers(cl, p.StateBytes)
	}
	plan, err := queries.Resolve(p.Query, queries.Sizing{
		StateBytes: p.StateBytes, Users: users,
		DataBytes: p.DataBytes, ChunkBytes: p.ChunkBytes, Seed: p.Seed,
	}, cl.Model)
	if err != nil {
		return job, nil, err
	}
	job = engine.JobSpec{
		Input:           plan.Input,
		Platform:        platform,
		Cluster:         cl,
		Hints:           plan.Hints,
		ScanEvery:       4096,
		Seed:            p.Seed,
		CheckpointEvery: p.CheckpointEvery,
		NodeCombine:     combine,
		AggFanIn:        p.AggFanIn,
	}
	// Validate fills defaults in place; check a copy so the spec handed
	// back is exactly what the fields above say.
	check := job
	check.Query = plan.NewQuery()
	if err := check.Validate(); err != nil {
		return engine.JobSpec{}, nil, err
	}
	return job, plan.NewQuery, nil
}

// Backend is an execution substrate, as named by onepass -backend and
// the scheduler's "backend" key: it runs a built job. The wall-clock
// backend runs job.Cluster.Parallelism map goroutines and reduce slots (0 =
// GOMAXPROCS); on the simulation that count includes the kernel's thread.
type Backend func(job engine.JobSpec, newQuery func() mr.Query) (*engine.Report, error)

// ParseBackend resolves a backend name: sim is the discrete-event
// simulation, real the goroutine backend under wall-clock time.
func ParseBackend(name string) (Backend, error) {
	switch name {
	case "sim":
		return func(job engine.JobSpec, newQuery func() mr.Query) (*engine.Report, error) {
			job.Query = newQuery()
			return engine.Run(job)
		}, nil
	case "real":
		return realexec.Run, nil
	}
	return nil, fmt.Errorf("unknown backend %q (want sim or real)", name)
}

// Resume turns a built job into the run that resumes an interrupted one,
// modelling the interruption as a node kill. On an incremental platform
// with a survivor, the re-execution checkpoints reducer state after
// every consumed map output (unless the job already checkpoints) and
// kills node 1 three quarters through the map phase, so the reducers
// restore from their newest checkpoint and replay only the unconsumed
// suffix — the engine's own node-loss recovery. Non-incremental
// platforms have no reducer state to restore, and a one-node cluster no
// survivor to restore it on; both simply re-run, unchanged.
func Resume(job *engine.JobSpec) {
	if !job.Platform.Incremental() || job.Cluster.Nodes <= 1 {
		return
	}
	if job.CheckpointEvery <= 0 {
		// The resume must replay from the newest possible state, not
		// whatever a coarse timer happened to capture.
		job.CheckpointEvery = time.Nanosecond
	}
	job.Faults.KillAtMapProgress = map[int]float64{1: 0.75}
}
