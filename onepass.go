// Package onepass is a platform for scalable one-pass analytics using
// MapReduce — a Go reproduction of Li, Mazur, Diao, McGregor and
// Shenoy (SIGMOD 2011).
//
// The package runs MapReduce queries over a deterministic simulated
// cluster with five interchangeable data paths: Hadoop's sort-merge
// baseline, MapReduce Online-style pipelining (HOP), and the paper's
// three hash techniques — MR-hash (hybrid hash group-by), INC-hash
// (incremental key-state processing) and DINC-hash (frequent-key
// monitoring with in-memory processing of hot keys). Real records flow
// through real implementations of every component; only time is
// virtual, charged by a calibrated cost model so that a laptop
// reproduces the schedules, spill volumes, and progress curves of the
// paper's 10-node × hundreds-of-GB experiments.
//
// Quick start:
//
//	m := onepass.DefaultModel(1.0 / 256)             // 1GB stands for 256GB
//	input := onepass.SyntheticClickStream(onepass.ClickStreamSpec{
//	    PhysBytes: m.ScaleBytes(236e9),              // the paper's 236GB
//	    ChunkPhys: m.ScaleBytes(64e6),               // 64MB HDFS chunks
//	    Seed:      42,
//	    Users:     100_000, UserSkew: 1.2,
//	    URLs:      20_000, URLSkew: 1.3,
//	    Duration:  24 * time.Hour, Jitter: 2 * time.Second,
//	})
//	rep, err := onepass.Run(onepass.Job{
//	    Query:    onepass.Sessionization(5*time.Minute, 512, 5*time.Second),
//	    Input:    input,
//	    Platform: onepass.DINCHash,
//	    Cluster:  onepass.PaperCluster(m),
//	})
//
// The report carries running time, per-phase CPU, the paper's five
// I/O classes (input, map spill, shuffle, reduce spill, output), the
// Definition 1 map/reduce progress curves, task timelines, and CPU
// utilization / iowait series.
//
// The simulation is deterministic but not single-threaded: the
// Cluster's Parallelism knob (0 = GOMAXPROCS) is the number of threads
// that run pure per-task computation — chunk synthesis, parsing, map
// functions, the sort-merge sorts, merges and final reduce — while the
// discrete-event kernel schedules one simulated process at a time: the
// kernel's own thread, which computes while a process waits, and
// Parallelism−1 pool goroutines. Reports are bit-for-bit identical for
// every count (including 1); only wall-clock time changes.
//
// A second execution substrate runs the same five data paths on real
// goroutines under wall-clock time with an M3R-style in-memory shuffle
// (RunReal); its answers and counters — including recovery from
// injected crashes, stragglers, task failures, and transient shuffle
// errors — are conformance-tested against the simulation.
package onepass

import (
	"time"

	"repro/internal/cost"
	"repro/internal/dfs"
	"repro/internal/engine"
	"repro/internal/jobspec"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/mr"
	"repro/internal/queries"
	"repro/internal/realexec"
	"repro/internal/workload"
)

// Programming model (see internal/mr for full documentation).
type (
	// Query is a MapReduce program: Map plus Reduce.
	Query = mr.Query
	// Combiner marks queries admitting partial aggregation.
	Combiner = mr.Combiner
	// Incremental marks queries supporting init/cb/fn state processing.
	Incremental = mr.Incremental
	// EarlyEmitter marks incremental queries with early answers.
	EarlyEmitter = mr.EarlyEmitter
	// OutputWriter receives job output records.
	OutputWriter = mr.OutputWriter
	// Hints carries workload estimates used to size hash buckets.
	Hints = mr.Hints
	// Input is a chunked input dataset (deterministic per chunk).
	Input = dfs.Input
)

// Execution (see internal/engine).
type (
	// Platform selects the data path.
	Platform = engine.Platform
	// Cluster describes the simulated cluster and Hadoop parameters.
	Cluster = engine.ClusterConfig
	// Job is a complete job submission.
	Job = engine.JobSpec
	// FaultPlan injects node crashes, stragglers, and task failures
	// into a run (Job.Faults); answers are unchanged, recovery costs
	// are reported.
	FaultPlan = engine.FaultPlan
	// DiskFaultPlan injects data-plane faults (FaultPlan.Disk):
	// transient I/O errors, write-time bit flips, and torn checkpoint
	// tails, live in the map phase. Corruption injection requires
	// Cluster.Checksums; all detections and repairs are reported.
	DiskFaultPlan = engine.DiskFaultPlan
	// Report is the result of a run.
	Report = engine.Report
	// ProgressPoint is one point of the Definition 1 progress curve.
	ProgressPoint = metrics.ProgressPoint
	// Sample is one raw metrics sample (timeline, CPU, iowait).
	Sample = metrics.Sample
	// CostModel converts work into virtual time at a chosen scale.
	CostModel = cost.Model
)

// NodeCombineMode selects the in-node combine stage (Job.NodeCombine):
// every local map task's output on a node folds into one per-node hash
// table, and a single merged partitioned run per node enters the
// shuffle. Hierarchical (rack-style) aggregation on top of it is
// Job.AggFanIn. Answers are bit-identical to the per-task path on both
// backends; the shuffle bytes removed are reported in
// Report.ShuffleBytesSaved and the per-node breakdown in
// Report.ShuffleBytesByNode.
type NodeCombineMode = engine.NodeCombineMode

// Node-combine modes. Auto consults the analytical model: combining
// turns on when the predicted saving from the Km/Kr hints clears
// ModelNodeCombineThreshold.
const (
	NodeCombineOff  = engine.NodeCombineOff
	NodeCombineOn   = engine.NodeCombineOn
	NodeCombineAuto = engine.NodeCombineAuto
)

// ModelNodeCombineThreshold is the predicted shuffle-saving fraction
// above which NodeCombineAuto enables the stage.
const ModelNodeCombineThreshold = model.NodeCombineThreshold

// ModelNodeCombineSavedFrac predicts the fraction of shuffle bytes
// in-node combining removes for a workload on n nodes — the quantity
// NodeCombineAuto compares against ModelNodeCombineThreshold.
func ModelNodeCombineSavedFrac(w ModelWorkload, n int) float64 {
	return model.NodeCombineSavedFrac(w, n)
}

// Platforms.
const (
	// SortMerge is Hadoop's sort-merge implementation (§2.2); stock
	// versus optimized Hadoop is a parameter choice on the Cluster.
	SortMerge = engine.SortMerge
	// HOP is MapReduce Online-style pipelining (§2.2, §3.3).
	HOP = engine.HOP
	// MRHash is the basic hash technique (§4.1).
	MRHash = engine.MRHash
	// INCHash is the incremental hash technique (§4.2).
	INCHash = engine.INCHash
	// DINCHash is the dynamic incremental hash technique (§4.3).
	DINCHash = engine.DINCHash
)

// Workload generators (see internal/workload).
type (
	// ClickStreamSpec configures the synthetic WorldCup-like click
	// stream.
	ClickStreamSpec = workload.ClickSpec
	// DocCorpusSpec configures the synthetic GOV2-like corpus.
	DocCorpusSpec = workload.DocSpec
)

// Analytical model of Hadoop (§3; see internal/model).
type (
	// ModelWorkload is (D, Km, Kr).
	ModelWorkload = model.Workload
	// ModelHardware is (N, Bm, Br).
	ModelHardware = model.Hardware
	// ModelParams are the tunables (R, C, F).
	ModelParams = model.Params
)

// Run executes a job to completion on the simulated cluster.
func Run(job Job) (*Report, error) { return engine.Run(job) }

// RunReal executes a job on the wall-clock backend: real goroutines,
// real time, and an M3R-style in-memory shuffle, with the same data
// paths and the same virtual-time CPU/I/O accounting as the
// simulation. newQuery must build a fresh Query instance on every call
// (queries carry per-task scratch state); workers (0 = 1) is both the
// map goroutines and the reduce slots. The answer and every counter in the Report
// are identical for any worker count and match the DES run; only
// RunningTime, MapFinishTime, WallTime, Spans, and the two
// timing-dependent recovery counters (FetchRetries, SpeculativeWins)
// are measured. Fault plans and checkpointing run here too, with the
// same triggers as Run — kills at map progress
// (FaultPlan.KillAtMapProgress), seeded transient shuffle errors
// (ShuffleErrorRate), and disk damage (FaultPlan.Disk) injected into the
// primary map attempts. No map barrier: reducers consume each map output
// from memory as it is published, so only sort-merge's map-side spills
// read damaged bytes back here. Job.Query is ignored.
func RunReal(job Job, newQuery func() Query, workers int) (*Report, error) {
	job.Cluster.Parallelism = max(1, workers)
	return realexec.Run(job, newQuery)
}

// DefaultModel returns the calibrated cost model at the given scale
// (physical bytes per logical byte; 1.0/256 means 1GB stands in for
// 256GB).
func DefaultModel(scale float64) CostModel { return cost.Default(scale) }

// PaperCluster returns the paper's evaluation cluster (§2.3) under the
// given cost model: 10 nodes × 4 cores, 4 map + 4 reduce slots, R=4,
// 140MB map buffers, 500MB reduce buffers.
func PaperCluster(m CostModel) Cluster { return engine.PaperCluster(m) }

// Job description (see internal/jobspec): what cmd/onepass, the
// scheduler and the figures all build a named job through.
type (
	// JobParams is the plain-data description of one catalogue job, in
	// the spellings of the onepass flags.
	JobParams = jobspec.Params
	// Backend is an execution substrate resolved by name.
	Backend = jobspec.Backend
)

// ModelMergeFactor as JobParams.MergeFactor asks the analytical model
// for the merge factor.
const ModelMergeFactor = jobspec.ModelF

// BuildJob builds the job p describes — catalogue query
// (sessionization|clickcount|frequsers|pagefreq|trigram), hints and
// synthetic input on the paper's cluster — plus the query factory
// RunReal and Backend.Run take. Anything it cannot build is an error.
// The caller may still set Faults, Cluster.Checksums and
// SkipBadRecords on the result.
func BuildJob(p JobParams) (Job, func() Query, error) { return jobspec.Build(p) }

// ParseBackend resolves the -backend flag spelling: sim (Run) or real
// (RunReal, workers 0 = GOMAXPROCS).
func ParseBackend(name string) (Backend, error) { return jobspec.ParseBackend(name) }

// SyntheticClickStream builds the WorldCup-like click stream input.
func SyntheticClickStream(spec ClickStreamSpec) *workload.ClickStream {
	return workload.NewClickStream(spec)
}

// SyntheticDocCorpus builds the GOV2-like document corpus input.
func SyntheticDocCorpus(spec DocCorpusSpec) *workload.DocCorpus {
	return workload.NewDocCorpus(spec)
}

// Sessionization returns the click-session splitting query (§2.3):
// gap of inactivity that closes a session, fixed per-user state buffer
// size in bytes, and the tolerated timestamp disorder.
func Sessionization(gap time.Duration, stateBytes int, disorder time.Duration) Query {
	return queries.NewSessionization(gap, stateBytes, disorder)
}

// ClickCount returns the clicks-per-user query.
func ClickCount() Query { return queries.NewClickCount() }

// FrequentUsers returns the frequent-user identification query: users
// with at least threshold clicks, emitted as soon as known (§6).
func FrequentUsers(threshold int64) Query { return queries.NewFrequentUsers(threshold) }

// PageFrequency returns the visits-per-URL query.
func PageFrequency() Query { return queries.NewPageFrequency() }

// TrigramCount returns the word-trigram counting query: trigrams
// appearing at least threshold times (§6).
func TrigramCount(threshold int64) Query { return queries.NewTrigramCount(threshold) }

// ModelTimeCost evaluates the analytical model's time measurement T
// (Eq. 4) with the paper's §3.2 constants.
func ModelTimeCost(w ModelWorkload, h ModelHardware, p ModelParams) float64 {
	return model.TimeCost(w, h, p, model.PaperConstants())
}

// ModelOptimize picks the (C, F) minimizing T over candidate sets.
func ModelOptimize(w ModelWorkload, h ModelHardware, r int, cs []float64, fs []int) ModelParams {
	return model.Optimize(w, h, r, cs, fs, model.PaperConstants())
}

// WindowCount returns the tumbling-window URL-visit counting query —
// the stream-processing extension of the platform (§8): each window's
// counts are emitted as soon as the watermark passes the window end,
// with late data reported as supplementary records.
func WindowCount(window, disorder time.Duration) Query {
	return queries.NewWindowCount(window, disorder)
}

// FileInput loads a real newline-delimited log file as job input,
// split into ~chunkBytes chunks at record boundaries — for running the
// platform over actual traces instead of the synthetic generators.
func FileInput(path string, chunkBytes int64) (Input, error) {
	return workload.NewFileInput(path, chunkBytes)
}

// BytesInput wraps an in-memory record buffer as job input.
func BytesInput(name string, data []byte, chunkBytes int64) Input {
	return workload.NewBytesInput(name, data, chunkBytes)
}
