// Benchmarks regenerating every table and figure of the paper, one
// testing.B benchmark per experiment (quick configuration: datasets
// shrunk 16× and steep scaling, so each iteration runs in seconds).
// The benchmark time measures the wall cost of the reproduction; the
// paper-facing quantities (virtual running time, spill volumes) are
// attached as custom metrics.
//
// The BenchmarkJob* benchmarks time one 16 GB job each, on the DES or
// the wall clock; those that pair with another run (wall clock against
// DES, combine-on against combine-off, the recovery cocktail against the
// same job without faults) check their Report against it after the
// timer stops.
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// Full-fidelity tables come from cmd/benchtables at -scale 1/512;
// numbers compared across commits come from the bench module's
// alternating pairs.
package onepass_test

import (
	"testing"
	"time"

	"repro"
	"repro/internal/experiments"
)

// benchExperiment runs one registered experiment per iteration.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := experiments.Get(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	cfg := experiments.Config{Scale: 1.0 / 4096, Quick: true, Seed: 42}
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// One benchmark per paper artifact.

func BenchmarkTable1StockHadoop(b *testing.B)        { benchExperiment(b, "table1") }
func BenchmarkFig2StockTimeline(b *testing.B)        { benchExperiment(b, "fig2") }
func BenchmarkFig2dSSDIntermediates(b *testing.B)    { benchExperiment(b, "fig2d") }
func BenchmarkFig2efHOPUtilization(b *testing.B)     { benchExperiment(b, "fig2ef") }
func BenchmarkFig4abModelVsMeasured(b *testing.B)    { benchExperiment(b, "fig4ab") }
func BenchmarkFig4cProgressOptimized(b *testing.B)   { benchExperiment(b, "fig4c") }
func BenchmarkFig4deOptimizedUtil(b *testing.B)      { benchExperiment(b, "fig4de") }
func BenchmarkFig4fHOPProgress(b *testing.B)         { benchExperiment(b, "fig4f") }
func BenchmarkSec32ReducerWaves(b *testing.B)        { benchExperiment(b, "sec32r") }
func BenchmarkTable3PlatformComparison(b *testing.B) { benchExperiment(b, "table3") }
func BenchmarkFig7dStateSizes(b *testing.B)          { benchExperiment(b, "fig7d") }
func BenchmarkTable4DINCvsINC(b *testing.B)          { benchExperiment(b, "table4") }
func BenchmarkFig7fTrigram(b *testing.B)             { benchExperiment(b, "fig7f") }

// benchClicks is the 16 GB click stream over users distinct users at
// 1/4096: the paper's sessionization input.
func benchClicks(m onepass.CostModel, users int) onepass.Input {
	return onepass.SyntheticClickStream(onepass.ClickStreamSpec{
		PhysBytes: m.ScaleBytes(16e9),
		ChunkPhys: m.ScaleBytes(64e6),
		Seed:      42,
		Users:     users,
		UserSkew:  1.2,
		URLs:      10_000,
		URLSkew:   1.3,
		Duration:  24 * time.Hour,
		Jitter:    2 * time.Second,
	})
}

// job16G is the head-to-head job: 20,000 users on the paper's cluster
// with merge factor 16 and the DINC scavenger every 4,096 tuples.
func job16G(platform onepass.Platform, km float64) onepass.Job {
	m := onepass.DefaultModel(1.0 / 4096)
	cluster := onepass.PaperCluster(m)
	cluster.MergeFactor = 16
	const users = 20_000
	return onepass.Job{
		Input:     benchClicks(m, users),
		Platform:  platform,
		Cluster:   cluster,
		Hints:     onepass.Hints{Km: km, DistinctKeys: users},
		ScanEvery: 4096,
	}
}

func sessions() onepass.Query { return onepass.Sessionization(5*time.Minute, 512, 5*time.Second) }

// runJob runs job once: on the DES, or on the wall clock with workers
// goroutines when workers > 0.
func runJob(b *testing.B, job onepass.Job, newQuery func() onepass.Query, workers int) *onepass.Report {
	b.Helper()
	var rep *onepass.Report
	var err error
	if workers > 0 {
		rep, err = onepass.RunReal(job, newQuery, workers)
	} else {
		job.Query = newQuery()
		rep, err = onepass.Run(job)
	}
	if err != nil {
		b.Fatal(err)
	}
	return rep
}

// benchJob measures one built job end to end, reports spill volume
// (and, on the DES, virtual time) as custom metrics, stops the timer,
// and returns the last Report for the caller to check.
func benchJob(b *testing.B, job onepass.Job, newQuery func() onepass.Query, workers int) *onepass.Report {
	b.Helper()
	var rep *onepass.Report
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep = runJob(b, job, newQuery, workers)
	}
	b.StopTimer()
	if workers == 0 {
		b.ReportMetric(rep.RunningTime.Seconds(), "virtual-s")
	}
	b.ReportMetric(float64(rep.ReduceSpillBytes)/1e9, "spill-GB")
	return rep
}

// explained fails b if rep raises a counter that no cause of job
// explains.
func explained(b *testing.B, job onepass.Job, rep *onepass.Report) {
	b.Helper()
	if f := rep.Unexplained(job.Causes()...); f != "" {
		b.Fatalf("%s is nonzero although no cause of the job explains it", f)
	}
}

// sameAnswer fails b unless got's answer counters (output records and
// bytes, approximate keys) equal want's. The benchmarks keep their
// rows' specs, so they collect no outputs to compare row by row.
func sameAnswer(b *testing.B, want, got *onepass.Report) {
	b.Helper()
	if got.OutputRecords != want.OutputRecords || got.OutputBytes != want.OutputBytes || got.ApproxKeys != want.ApproxKeys {
		b.Fatalf("answer differs: %d records, %d bytes, %d approximate keys; want %d, %d, %d",
			got.OutputRecords, got.OutputBytes, got.ApproxKeys, want.OutputRecords, want.OutputBytes, want.ApproxKeys)
	}
}

// Head-to-head platform benchmarks on the sessionization workload.

func BenchmarkJobSessionizationSM(b *testing.B) {
	benchJob(b, job16G(onepass.SortMerge, 1.15), sessions, 0)
}

func BenchmarkJobSessionizationMRHash(b *testing.B) {
	benchJob(b, job16G(onepass.MRHash, 1.15), sessions, 0)
}

func BenchmarkJobSessionizationINCHash(b *testing.B) {
	benchJob(b, job16G(onepass.INCHash, 1.15), sessions, 0)
}

func BenchmarkJobSessionizationDINCHash(b *testing.B) {
	benchJob(b, job16G(onepass.DINCHash, 1.15), sessions, 0)
}

func BenchmarkJobClickCountSM(b *testing.B) {
	benchJob(b, job16G(onepass.SortMerge, 0.05), onepass.ClickCount, 0)
}

func BenchmarkJobClickCountINCHash(b *testing.B) {
	benchJob(b, job16G(onepass.INCHash, 0.05), onepass.ClickCount, 0)
}

// BenchmarkJobSessionizationRealW8 runs BenchmarkJobSessionizationSM's
// job on the wall clock: 8 goroutines, in-memory shuffle. Its ns/op is
// real execution time, so the ratio to the DES row is the simulation's
// overhead. The run must agree with the DES run wherever the tag table
// on engine.Report holds the two backends equal.
func BenchmarkJobSessionizationRealW8(b *testing.B) {
	job := job16G(onepass.SortMerge, 1.15)
	real := benchJob(b, job, sessions, 8)
	if d := job.Backends().Diff(runJob(b, job, sessions, 0), real); d != "" {
		b.Fatalf("wall-clock run differs from the DES run in %s", d)
	}
	explained(b, job, real)
}

// nodeCombineJob is the node-combine pair's job: the 16 GB stream over
// 400 users, so the in-node fold has duplication to collapse
// (K_r/K_m ≈ 0.01), counted per user by MR-hash (sessionization has no
// combine function). The reduce buffer is cut to 1/8 so the uncombined
// shuffle exceeds reducer memory: the paper's regime where hybrid hash
// spills buckets.
func nodeCombineJob(mode onepass.NodeCombineMode) onepass.Job {
	m := onepass.DefaultModel(1.0 / 4096)
	cluster := onepass.PaperCluster(m)
	cluster.ReduceBuffer /= 8
	const users = 400
	return onepass.Job{
		Input:       benchClicks(m, users),
		Platform:    onepass.MRHash,
		Cluster:     cluster,
		Hints:       onepass.Hints{Km: 0.12, DistinctKeys: users},
		NodeCombine: mode,
	}
}

func BenchmarkJobSessionizationNodeCombineOff(b *testing.B) {
	job := nodeCombineJob(onepass.NodeCombineOff)
	explained(b, job, benchJob(b, job, onepass.ClickCount, 0))
}

// BenchmarkJobSessionizationNodeCombine is the pair's combine-on half:
// each node's map outputs fold into one merged run before the shuffle.
// Its delta to the Off row is the wall-clock win of moving fewer bytes
// through shuffle, spill and fetch, net of the fold's own CPU. It must
// answer what the Off job answers, on a smaller shuffle.
func BenchmarkJobSessionizationNodeCombine(b *testing.B) {
	job := nodeCombineJob(onepass.NodeCombineOn)
	on := benchJob(b, job, onepass.ClickCount, 0)
	off := runJob(b, nodeCombineJob(onepass.NodeCombineOff), onepass.ClickCount, 0)
	sameAnswer(b, off, on)
	if on.NodeCombineInputRecords == 0 || on.ShuffleBytesSaved <= 0 || on.MapOutputBytes >= off.MapOutputBytes {
		b.Fatalf("the fold saved nothing: absorbed %d pairs, saved %d bytes, shuffle %d (off %d)",
			on.NodeCombineInputRecords, on.ShuffleBytesSaved, on.MapOutputBytes, off.MapOutputBytes)
	}
	explained(b, job, on)
}

// BenchmarkJobSessionizationRealRecovery runs the 16 GB INC-hash job on
// the wall clock under the whole recovery cocktail: a node killed at
// half the map phase, a 3x straggler with speculative backups, two
// failed map attempts, 2% transient shuffle errors, and reducer
// checkpoints every millisecond. Its delta to the same job without
// faults is the price of recovery: re-executed maps, restarted
// reducers replaying their post-checkpoint suffix, fetch-retry backoff.
// It must answer what that fault-free job answers.
func BenchmarkJobSessionizationRealRecovery(b *testing.B) {
	job := job16G(onepass.INCHash, 1.15)
	job.CheckpointEvery = time.Millisecond
	clean := job
	job.Faults = onepass.FaultPlan{
		KillAtMapProgress: map[int]float64{1: 0.5},
		SlowNodes:         map[int]float64{2: 3},
		Speculate:         true,
		MapFailures:       map[int]int{0: 1, 3: 1},
		FailPoint:         0.5,
		ShuffleErrorRate:  0.02,
	}
	faulted := benchJob(b, job, sessions, 8)
	ref := runJob(b, clean, sessions, 8)
	sameAnswer(b, ref, faulted)
	explained(b, clean, ref)
	explained(b, job, faulted)
}

// Extension benchmarks.

func BenchmarkExtHOPSnapshots(b *testing.B)        { benchExperiment(b, "hopsnap") }
func BenchmarkExtCoverageAnswers(b *testing.B)     { benchExperiment(b, "coverage") }
func BenchmarkExtWindowStreaming(b *testing.B)     { benchExperiment(b, "windows") }
func BenchmarkExtNodeFailureRecovery(b *testing.B) { benchExperiment(b, "recovery") }

func BenchmarkJobWindowCountDINC(b *testing.B) {
	benchJob(b, job16G(onepass.DINCHash, 0.1), func() onepass.Query {
		return onepass.WindowCount(time.Hour, 5*time.Second)
	}, 0)
}

// Ablation benchmarks: vary one engine design choice at a time and
// report the resulting virtual running time (the design-choice
// sensitivity studies DESIGN.md calls out).

func benchAblation(b *testing.B, mutate func(*onepass.Cluster), scanEvery int64) {
	b.Helper()
	job := job16G(onepass.DINCHash, 1.15)
	mutate(&job.Cluster)
	job.ScanEvery = scanEvery
	benchJob(b, job, func() onepass.Query {
		return onepass.Sessionization(5*time.Minute, 2048, 5*time.Second)
	}, 0)
}

// Scavenging ablation: DINC-hash with and without the §6.2 proactive
// eviction of expired sessions.
func BenchmarkAblationDINCNoScavenge(b *testing.B) {
	benchAblation(b, func(*onepass.Cluster) {}, 0)
}

func BenchmarkAblationDINCScavenge(b *testing.B) {
	benchAblation(b, func(*onepass.Cluster) {}, 4096)
}

// Slot-cache ablation: shuffle served from mapper memory vs disk.
func BenchmarkAblationTinySlotCache(b *testing.B) {
	benchAblation(b, func(c *onepass.Cluster) { c.SlotCache = 1 }, 4096)
}

// Write-buffer page ablation: page size trades request count (seeks)
// against memory reserved from the hash table.
func BenchmarkAblationSmallPages(b *testing.B) {
	benchAblation(b, func(c *onepass.Cluster) { c.Page /= 8 }, 4096)
}

func BenchmarkAblationLargePages(b *testing.B) {
	benchAblation(b, func(c *onepass.Cluster) { c.Page *= 8 }, 4096)
}
