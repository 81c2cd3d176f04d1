package realexec_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/mr"
	"repro/internal/queries"
)

// ncJob is the canonical combinable job for the real-backend combine
// tests: the golden clickcount job with node combining switched on.
func ncJob(t testing.TB, pl engine.Platform, mode engine.NodeCombineMode) engine.JobSpec {
	t.Helper()
	job := goldenJob(t, pl)
	job.NodeCombine = mode
	return job
}

// runEngine runs the same JobSpec on the DES, failing the test on
// error. The spec needs a live Query instance (the engine contract);
// the real backend takes the factory instead.
func runEngine(t testing.TB, job engine.JobSpec, newQ func() mr.Query) *engine.Report {
	t.Helper()
	job.Query = newQ()
	rep, err := engine.Run(job)
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	return rep
}

// TestNodeCombineBackendParity is the mirror contract of the combine
// stage: on a fault-free combine-on run, the wall-clock backend's fold
// must reproduce the engine's bit for bit — the published runs (and so
// every shuffle byte counter, per node), the absorbed and emitted pair
// counts, and the fold CPU folded into the map ledger. Only the raw
// output emission order is scheduler-shaped; the sorted answer set is
// compared instead.
func TestNodeCombineBackendParity(t *testing.T) {
	for _, pl := range []engine.Platform{engine.SortMerge, engine.MRHash, engine.INCHash, engine.DINCHash} {
		for _, fanIn := range []int{0, 3} {
			t.Run(fmt.Sprintf("%s/fanin%d", pl, fanIn), func(t *testing.T) {
				job := ncJob(t, pl, engine.NodeCombineOn)
				job.AggFanIn = fanIn
				des := runEngine(t, job, queries.NewClickCount)
				real := runReal(t, job, queries.NewClickCount, 4)

				if des.NodeCombineInputRecords == 0 {
					t.Fatal("combine stage did not run on the engine")
				}
				requireSameAnswers(t, des, real, "real vs engine")
				// Stricter than job.Backends(): on this job neither the
				// consumption order nor the shuffle medium moves a field.
				same := engine.Comparison{Moves: []string{engine.Clock, engine.Host, engine.Trace}}
				if d := same.Diff(des, real); d != "" {
					t.Fatalf("backends diverged on a combine-on run: %s differs\nengine=%+v\nreal=%+v",
						d, des.Profile(), real.Profile())
				}
			})
		}
	}
}

// TestNodeCombineRealAnswerIdentity pins the on-vs-off contract on the
// real backend alone: identical answers and content counters, strictly
// fewer shuffle bytes, and combine counters populated — at every
// worker count, with the stable Report identical across counts.
func TestNodeCombineRealAnswerIdentity(t *testing.T) {
	for _, pl := range []engine.Platform{engine.SortMerge, engine.MRHash, engine.INCHash, engine.DINCHash} {
		t.Run(pl.String(), func(t *testing.T) {
			offJob, onJob := ncJob(t, pl, engine.NodeCombineOff), ncJob(t, pl, engine.NodeCombineOn)
			off := runReal(t, offJob, queries.NewClickCount, 4)
			var base *engine.Report
			for _, workers := range []int{1, 4, 8} {
				on := runReal(t, onJob, queries.NewClickCount, workers)
				requireSameAnswers(t, off, on, fmt.Sprintf("combine-on, %d workers", workers))
				if base == nil {
					base = on
					if on.NodeCombineInputRecords == 0 || on.NodeCombineOutputRecords == 0 {
						t.Fatalf("combine stage did not run: in=%d out=%d",
							on.NodeCombineInputRecords, on.NodeCombineOutputRecords)
					}
					if on.NodeCombineOutputRecords >= on.NodeCombineInputRecords {
						t.Fatalf("fold did not compact: in=%d out=%d",
							on.NodeCombineInputRecords, on.NodeCombineOutputRecords)
					}
					if on.ShuffleBytesSaved <= 0 {
						t.Fatalf("no shuffle bytes saved (saved=%d)", on.ShuffleBytesSaved)
					}
					if on.MapOutputBytes >= off.MapOutputBytes {
						t.Fatalf("shuffle volume did not drop: off=%d on=%d",
							off.MapOutputBytes, on.MapOutputBytes)
					}
					continue
				}
				if d := onJob.RealRuns().Diff(base, on); d != "" {
					t.Fatalf("%d workers diverged from 1 worker: %s differs", workers, d)
				}
			}
			if f := off.Unexplained(offJob.Causes()...); f != "" {
				t.Fatalf("%s nonzero with combining off", f)
			}
		})
	}
}

// TestNodeCombineRealHierarchical pins fan-in aggregation on the real
// backend: with all three nodes folding through node 0, the whole
// shuffle is served from node 0 and the saving is at least the flat
// per-node one.
func TestNodeCombineRealHierarchical(t *testing.T) {
	flat := runReal(t, ncJob(t, engine.MRHash, engine.NodeCombineOn), queries.NewClickCount, 4)
	job := ncJob(t, engine.MRHash, engine.NodeCombineOn)
	job.AggFanIn = 3
	agg := runReal(t, job, queries.NewClickCount, 4)

	requireSameAnswers(t, flat, agg, "fan-in 3")
	if agg.ShuffleBytesSaved < flat.ShuffleBytesSaved {
		t.Fatalf("tree aggregation saved less than flat combining: %d < %d",
			agg.ShuffleBytesSaved, flat.ShuffleBytesSaved)
	}
	for i, b := range agg.ShuffleBytesByNode {
		if i != 0 && b != 0 {
			t.Fatalf("fan-in 3 must serve the whole shuffle from node 0: node %d served %d bytes", i, b)
		}
	}
}

// TestNodeCombineRealFaulted pins the fault scope (engine.JobFrame.Keep,
// shared with the DES) on this backend: it keeps folding the chunks
// whose outputs provably survive on their home node. Every chaos plan
// must still answer bit-identically to the combine-off run, stay
// deterministic across worker counts, and — except under whole-node
// kills and speculation, where chunks are excluded — still combine.
func TestNodeCombineRealFaulted(t *testing.T) {
	for _, pl := range []engine.Platform{engine.MRHash, engine.INCHash} {
		clean := runReal(t, ncJob(t, pl, engine.NodeCombineOff), queries.NewClickCount, 4)
		for _, plan := range chaosPlans(pl) {
			t.Run(fmt.Sprintf("%s/%s", pl, plan.name), func(t *testing.T) {
				job := ncJob(t, pl, engine.NodeCombineOn)
				job.Faults = plan.faults
				job.CheckpointEvery = plan.ckpt
				var base *engine.Report
				for _, workers := range []int{1, 4, 8} {
					rep := runReal(t, job, queries.NewClickCount, workers)
					requireSameAnswers(t, clean, rep, fmt.Sprintf("%s, %d workers", plan.name, workers))
					if base == nil {
						base = rep
						continue
					}
					if d := job.RealRuns().Diff(base, rep); d != "" {
						t.Errorf("%d workers diverged from 1 worker in %s", workers, d)
					}
				}
				// Plans that neither kill a node nor speculate leave every
				// chunk eligible: the fold must have run at full strength.
				excl := len(plan.faults.KillAtMapProgress) > 0 ||
					(plan.faults.Speculate && len(plan.faults.SlowNodes) > 0)
				if !excl && base.NodeCombineInputRecords == 0 {
					t.Errorf("%s: combine stage did not run under a survivable plan", plan.name)
				}
				if excl && base.NodeCombineInputRecords == 0 && len(plan.faults.KillAtMapProgress) < 3 {
					// Even with one node lost or speculated away, the other
					// nodes' chunks still fold.
					t.Errorf("%s: no chunk combined although survivor nodes exist", plan.name)
				}
			})
		}
	}
}

// TestNodeCombineRealAuto pins the cost-model gate on the real
// backend: same threshold, same hints, same resolution as the DES.
func TestNodeCombineRealAuto(t *testing.T) {
	run := func(hints mr.Hints) *engine.Report {
		job := ncJob(t, engine.MRHash, engine.NodeCombineAuto)
		job.Hints = hints
		return runReal(t, job, queries.NewClickCount, 4)
	}
	if rep := run(mr.Hints{Km: 0.1, Kr: 0.001, DistinctKeys: 400}); rep.NodeCombineInputRecords == 0 {
		t.Fatal("auto should combine on a high-duplication workload")
	}
	if rep := run(mr.Hints{Km: 0.1, Kr: 0.03, DistinctKeys: 400}); rep.NodeCombineInputRecords != 0 {
		t.Fatal("auto should not combine when the predicted saving is below threshold")
	}
}

// TestNodeCombineRealNoop pins the no-op rule on the real backend: an
// uncombinable query leaves the stable Report bit-identical with the
// switch on.
func TestNodeCombineRealNoop(t *testing.T) {
	newQ := func() mr.Query { return queries.NewSessionization(5*time.Minute, 512, 5*time.Second) }
	job := goldenJob(t, engine.INCHash)
	job.Hints = mr.Hints{Km: 1.15, DistinctKeys: 400}
	off := runReal(t, job, newQ, 4)
	job.NodeCombine = engine.NodeCombineOn
	on := runReal(t, job, newQ, 4)
	if d := job.RealRuns().Diff(off, on); d != "" {
		t.Fatalf("NodeCombineOn must be an exact no-op on an uncombinable query; %s differs", d)
	}
}
