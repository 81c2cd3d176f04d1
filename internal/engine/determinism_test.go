package engine

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/mr"
	"repro/internal/queries"
)

// TestParallelismDoesNotChangeReports is the determinism differential
// test for the compute pool: the same job run twice on the kernel's
// thread alone (Parallelism=1) and once per larger pool size must produce
// bit-identical Reports — event order, virtual times, I/O volumes,
// progress curves, spans, and every output record. Only Workers and
// WallTime may differ, so they are zeroed before comparison.
//
// Sessionization is the adversarial choice of query: it carries
// watermark state (replayed serially at delivery points), its map
// output is large (Km≈1, exercising collector flushes and spills), and
// the small reduce buffer forces the sort/spill paths. The click-count
// rows cover each fold-table flush, which runs on the process whatever
// the pool size: states on INC-hash, combined value lists on MR-hash,
// and the node combiner's key-sorted segments under sort-merge — with a
// map buffer small enough that the table overflows mid-task.
func TestParallelismDoesNotChangeReports(t *testing.T) {
	m := testModel()
	input := testClicks(t, 192<<10, 12<<10)
	rows := []struct {
		name        string
		pl          Platform
		combo       bool // clickcount (combiner) instead of sessionization
		nodeCombine NodeCombineMode
	}{
		{name: "sm/sessionization", pl: SortMerge},
		{name: "inc-hash/sessionization", pl: INCHash},
		{name: "inc-hash/clickcount", pl: INCHash, combo: true},
		{name: "mr-hash/clickcount", pl: MRHash, combo: true},
		{name: "sm/clickcount/node-combine", pl: SortMerge, combo: true, nodeCombine: NodeCombineOn},
	}
	for _, row := range rows {
		run := func(workers int) *Report {
			c := testCluster(m)
			c.ReduceBuffer = 16 << 10 // force reduce-side spills
			c.Page = 1 << 10
			c.Parallelism = workers
			spec := JobSpec{
				Query:       queries.NewSessionization(5*time.Minute, 512, 5*time.Second),
				Input:       input,
				Platform:    row.pl,
				Cluster:     c,
				Hints:       mr.Hints{Km: 1, DistinctKeys: 400},
				NodeCombine: row.nodeCombine,
				Seed:        7,
			}
			if row.combo {
				spec.Query, spec.Hints = queries.NewClickCount(), mr.Hints{Km: 0.1, DistinctKeys: 400}
				spec.Cluster.MapBuffer = 2 << 10 // several table flushes per task
			}
			rep := runJob(t, spec)
			if rep.Workers != workers && !(workers <= 1 && rep.Workers == 1) {
				// workers<=0 resolves to GOMAXPROCS, which the caller
				// avoids by always passing explicit positive counts.
				t.Fatalf("%s: report ran with %d workers, want %d", row.name, rep.Workers, workers)
			}
			return rep
		}
		serial1 := run(1)
		serial2 := run(1)
		if d := SimRuns.Diff(serial1, serial2); d != "" {
			t.Fatalf("%s: two serial runs differ in %s — simulation itself nondeterministic", row.name, d)
		}
		if len(serial1.Outputs) == 0 {
			t.Fatalf("%s: no outputs collected", row.name)
		}
		if row.nodeCombine == NodeCombineOn && serial1.NodeCombineInputRecords == 0 {
			t.Fatalf("%s: test setup: the node combiner never ran", row.name)
		}
		// 2 is the kernel's thread and one pool goroutine, the benchmark's
		// setting on two cores; 3 sits oddly against 16 map chunks; 4 is a
		// typical core count; 8 oversubscribes a small host — determinism
		// must hold regardless of which thread runs each closure.
		for _, w := range []int{2, 3, 4, 8} {
			if d := SimRuns.Diff(serial1, run(w)); d != "" {
				t.Fatalf("%s: Workers=%d report differs from serial run: %s", row.name, w, d)
			}
		}
	}
}

// TestOffloadedPathsAcrossWorkerCounts is the worker-count differential
// for the kernels that run offloaded beside their own charge: the
// map-side sort → combine → split (also HOP's pushed spills, and the
// external sort when C·Km > B_m), the reducer's shuffle-buffer merge
// (with and without a combiner), the multi-pass merge, and the final
// merge + reduce handed over in batches. Reports and outputs must be
// DeepEqual for Parallelism 1 vs. 2, 4 and 8, also when a node dies
// inside an offloaded charge (the merge and sort constants are inflated
// so those charges dominate virtual time, and the kill instants sweep
// the shuffle; the reduce-heavy variants inflate CPUReduceRec instead,
// so the instants land in the replay of a reduce batch while the next
// is being produced) and when reduce attempts are failed and restarted;
// afterwards no goroutine is left behind. Run under -race, this is also
// what shows the offloaded closures share nothing with their charges.
func TestOffloadedPathsAcrossWorkerCounts(t *testing.T) {
	m := testModel()
	m.CPUSortCmp *= 20
	m.CPUMergeRecord *= 50
	m.CPUCombine *= 20
	input := testClicks(t, 192<<10, 12<<10)
	base := runtime.NumGoroutine()
	type variant struct {
		name        string
		pl          Platform
		combo       bool // clickcount (combiner) instead of sessionization
		mapBuf      int64
		reduceHeavy bool // the final reduce dominates virtual time
		faults      func(clean *Report) FaultPlan
	}
	// Kills land at virtual instants (crashAt): the sweep reaches past
	// the map phase, where no map-progress point falls.
	crash := func(clean *Report, at time.Duration) FaultPlan {
		mf := clean.MapFinishTime
		return FaultPlan{
			KillAtMapProgress: map[int]float64{1: 1},
			crashAt:           map[int]time.Duration{1: at},
			HeartbeatInterval: mf / 100,
			HeartbeatTimeout:  mf / 25,
		}
	}
	kill := func(at float64) func(*Report) FaultPlan {
		return func(clean *Report) FaultPlan {
			mf := clean.MapFinishTime
			return crash(clean, mf/2+time.Duration(at*float64(clean.RunningTime-mf/2)))
		}
	}
	variants := []variant{
		{name: "sm/sessionization", pl: SortMerge},
		{name: "sm/clickcount", pl: SortMerge, combo: true},
		{name: "sm/sessionization/external-sort", pl: SortMerge, mapBuf: 4 << 10},
		{name: "hop/sessionization", pl: HOP, mapBuf: 4 << 10},
		{name: "hop/clickcount", pl: HOP, combo: true, mapBuf: 4 << 10},
		{name: "sm/clickcount/reduce-failures", pl: SortMerge, combo: true,
			faults: func(*Report) FaultPlan { return FaultPlan{ReduceFailures: map[int]int{0: 1, 3: 2}} }},
	}
	for _, at := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		variants = append(variants,
			variant{name: fmt.Sprintf("sm/sessionization/kill@%.1f", at), pl: SortMerge, faults: kill(at)},
			variant{name: fmt.Sprintf("sm/clickcount/kill@%.1f", at), pl: SortMerge, combo: true, faults: kill(at)})
	}
	// Kills swept over what follows the map phase — the final reduce, in
	// a reduce-heavy run — alone and on top of restarted reduce attempts.
	for _, at := range []float64{0.2, 0.5, 0.8} {
		at := at
		inFinal := func(clean *Report) FaultPlan {
			mf := clean.MapFinishTime
			return crash(clean, mf+time.Duration(at*float64(clean.RunningTime-mf)))
		}
		variants = append(variants,
			variant{name: fmt.Sprintf("sm/sessionization/reduce-heavy/kill@%.1f", at), pl: SortMerge, reduceHeavy: true, faults: inFinal},
			variant{name: fmt.Sprintf("sm/clickcount/reduce-heavy/kill@%.1f+reduce-failures", at), pl: SortMerge, combo: true, reduceHeavy: true,
				faults: func(clean *Report) FaultPlan {
					plan := inFinal(clean)
					plan.ReduceFailures = map[int]int{0: 1, 3: 2}
					return plan
				}})
	}
	lost, lostInFinal := 0, 0
	for _, v := range variants {
		spec := func(workers int) JobSpec {
			m := m
			if v.reduceHeavy {
				m = testModel()
				m.CPUReduceRec *= 2000
			}
			c := testCluster(m)
			c.ReduceBuffer = 16 << 10 // force reduce-side spills …
			if v.combo {
				c.ReduceBuffer = 1 << 10 // (map-side combining leaves little to shuffle)
			}
			c.MergeFactor = 3 // … and multi-pass merges of them
			c.Page = 1 << 10
			c.Parallelism = workers
			if v.mapBuf > 0 {
				c.MapBuffer = v.mapBuf
			}
			s := JobSpec{Input: input, Platform: v.pl, Cluster: c, Seed: 7}
			if v.combo {
				s.Query, s.Hints = queries.NewClickCount(), mr.Hints{Km: 0.1, DistinctKeys: 400}
			} else {
				s.Query = queries.NewSessionization(5*time.Minute, 512, 5*time.Second)
				s.Hints = mr.Hints{Km: 1, DistinctKeys: 400}
			}
			return s
		}
		var plan FaultPlan
		var cleanMapFinish time.Duration
		if v.faults != nil {
			clean := runJob(t, spec(1))
			plan, cleanMapFinish = v.faults(clean), clean.MapFinishTime
		}
		run := func(workers int) *Report {
			s := spec(workers)
			s.Faults = plan
			return runJob(t, s)
		}
		serial := run(1)
		if len(serial.Outputs) == 0 {
			t.Fatalf("%s: no outputs collected", v.name)
		}
		if serial.ReduceSpillBytes == 0 {
			t.Fatalf("%s: test setup: the reducers never spilled", v.name)
		}
		kinds := spanKinds(serial)
		lost += kinds["map-lost"] + kinds["reduce-lost"]
		for _, sp := range serial.Spans {
			if v.reduceHeavy && sp.Kind == "reduce-lost" && sp.End > cleanMapFinish {
				lostInFinal++
			}
		}
		for _, w := range []int{2, 4, 8} {
			if d := SimRuns.Diff(serial, run(w)); d != "" {
				t.Fatalf("%s: Parallelism=%d report differs from serial run: %s", v.name, w, d)
			}
		}
	}
	if lost == 0 || lostInFinal == 0 {
		t.Fatalf("test setup: %d attempts aborted mid-flight, %d of them reduce attempts in their final reduce", lost, lostInFinal)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the runs, %d before", runtime.NumGoroutine(), base)
		}
	}
}
