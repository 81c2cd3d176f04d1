package realexec_test

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/kvenc"
	"repro/internal/mr"
	"repro/internal/queries"
	"repro/internal/storage"
)

// chaosJob is the canonical faulted-run job: the golden clickcount
// input with outputs collected, on a 3-node cluster.
func chaosJob(t testing.TB, pl engine.Platform) engine.JobSpec {
	t.Helper()
	job := goldenJob(t, pl)
	job.Hints = mr.Hints{Km: 0.1, DistinctKeys: 400}
	return job
}

// answersOf extracts the answer triple every faulted run must
// reproduce bit-identically: the collected output rows, their count,
// and DINC's approximate key estimate.
func answersOf(rep *engine.Report) (rows []string, records, approx int64) {
	return sortedOutputs(rep), rep.OutputRecords, rep.ApproxKeys
}

// requireSameAnswers asserts the faulted run answers exactly as the
// clean run.
func requireSameAnswers(t *testing.T, clean, faulted *engine.Report, label string) {
	t.Helper()
	crows, crec, capx := answersOf(clean)
	frows, frec, fapx := answersOf(faulted)
	if frec != crec {
		t.Errorf("%s: OutputRecords = %d, clean %d", label, frec, crec)
	}
	if fapx != capx {
		t.Errorf("%s: ApproxKeys = %d, clean %d", label, fapx, capx)
	}
	if len(frows) != len(crows) {
		t.Fatalf("%s: %d output rows, clean %d", label, len(frows), len(crows))
	}
	for i := range crows {
		if frows[i] != crows[i] {
			t.Fatalf("%s: output %d = %q, clean %q", label, i, frows[i], crows[i])
		}
	}
}

// chaosPlans enumerates the fault configurations the conformance suite
// drives every platform through.
func chaosPlans(pl engine.Platform) []struct {
	name   string
	faults engine.FaultPlan
	ckpt   time.Duration
} {
	plans := []struct {
		name   string
		faults engine.FaultPlan
		ckpt   time.Duration
	}{
		{name: "kill", faults: engine.FaultPlan{KillAtMapProgress: map[int]float64{1: 0.5}}},
		{name: "kill-at-barrier", faults: engine.FaultPlan{KillAtMapProgress: map[int]float64{0: 1.0}}},
		{name: "stragglers", faults: engine.FaultPlan{SlowNodes: map[int]float64{2: 3}, Speculate: true}},
		{name: "task-failures", faults: engine.FaultPlan{
			MapFailures: map[int]int{0: 1, 3: 2}, ReduceFailures: map[int]int{1: 2}, FailPoint: 0.5}},
		{name: "shuffle-errors", faults: engine.FaultPlan{ShuffleErrorRate: 0.05}},
	}
	if pl.Incremental() {
		plans = append(plans, struct {
			name   string
			faults engine.FaultPlan
			ckpt   time.Duration
		}{
			name: "everything",
			faults: engine.FaultPlan{
				KillAtMapProgress: map[int]float64{1: 0.5},
				SlowNodes:         map[int]float64{2: 2.5},
				MapFailures:       map[int]int{2: 1},
				ReduceFailures:    map[int]int{0: 1},
				FailPoint:         0.6,
				ShuffleErrorRate:  0.03,
				Speculate:         true,
			},
			ckpt: time.Millisecond,
		})
	}
	return plans
}

// TestFaultedAnswerConformance is the tentpole's acceptance bar: for
// every platform that admits fault plans, every chaos configuration,
// at worker counts {1, 4, 8}, the run must answer bit-identically to
// the fault-free run, the stripped faulted Report must be identical
// across worker counts, and the recovery accounting must be populated.
// (HOP rejects all fault plans at validation, on both substrates; its
// clean-path conformance is TestWorkerCountConformance.)
func TestFaultedAnswerConformance(t *testing.T) {
	for _, pl := range []engine.Platform{engine.SortMerge, engine.MRHash, engine.INCHash, engine.DINCHash} {
		cleanJob := chaosJob(t, pl)
		clean := runReal(t, cleanJob, queries.NewClickCount, 4)
		if f := clean.Unexplained(cleanJob.Causes()...); f != "" {
			t.Fatalf("%s: clean run has nonzero %s", pl, f)
		}
		for _, plan := range chaosPlans(pl) {
			t.Run(fmt.Sprintf("%s/%s", pl, plan.name), func(t *testing.T) {
				job := chaosJob(t, pl)
				job.Faults = plan.faults
				job.CheckpointEvery = plan.ckpt
				var base *engine.Report
				for _, workers := range []int{1, 4, 8} {
					rep := runReal(t, job, queries.NewClickCount, workers)
					requireSameAnswers(t, clean, rep, fmt.Sprintf("%d workers", workers))
					if base == nil {
						base = rep
						continue
					}
					if d := job.RealRuns().Diff(base, rep); d != "" {
						t.Errorf("%d workers diverged from 1 worker in %s", workers, d)
					}
				}

				// Recovery accounting must reflect the injected plan.
				if n := len(plan.faults.KillAtMapProgress); n > 0 {
					if base.NodesLost != n {
						t.Errorf("NodesLost = %d, want %d", base.NodesLost, n)
					}
					if base.WastedCPUPerNode < 0 {
						t.Errorf("WastedCPUPerNode = %v, want >= 0", base.WastedCPUPerNode)
					}
				}
				if len(plan.faults.MapFailures) > 0 || len(plan.faults.ReduceFailures) > 0 {
					if base.WastedCPUPerNode <= 0 {
						t.Errorf("WastedCPUPerNode = %v, want > 0 with injected task failures", base.WastedCPUPerNode)
					}
				}
				if len(plan.faults.ReduceFailures) > 0 && base.RestartedReduceTasks == 0 {
					t.Error("RestartedReduceTasks = 0, want > 0 with injected reduce failures")
				}
				if plan.faults.Speculate && len(plan.faults.SlowNodes) > 0 && base.SpeculativeBackups == 0 {
					t.Error("SpeculativeBackups = 0, want > 0 with speculation on a straggler")
				}
				if plan.faults.ShuffleErrorRate > 0 && base.FetchRetries == 0 {
					t.Error("FetchRetries = 0, want > 0 with transient shuffle errors")
				}
				if plan.ckpt > 0 && pl.Incremental() && base.Checkpoints == 0 {
					t.Error("Checkpoints = 0, want > 0 with checkpointing enabled")
				}
			})
		}
	}
}

// requireFaultParity asserts that both backends interpreted one fault
// plan identically (engine.JobFrame's task_faults.go): the same answers,
// and every Report field equal but those the Backends comparison lets
// move — so the same map work, the same chunks combined, and the same
// node losses, re-executions and reducer restarts.
func requireFaultParity(t *testing.T, job engine.JobSpec, des, real *engine.Report, label string) {
	t.Helper()
	requireSameAnswers(t, des, real, label)
	if d := job.Backends().Diff(des, real); d != "" {
		t.Errorf("%s: engine and real differ in %s", label, d)
	}
}

// TestFaultedBackendParity runs one fault plan on both backends — a node
// killed halfway through the map tasks, two map failures at fail-point
// 0.5, a 3× straggler under speculation, 5% transient shuffle errors
// and, on the incremental platforms, checkpointing. Each backend must
// answer exactly as the clean run, lose the node and retry fetches.
// Further rows run a disk-damage plan on both backends, and hold the
// backends' fault counters equal with node combining under a kill.
func TestFaultedBackendParity(t *testing.T) {
	for _, pl := range []engine.Platform{engine.SortMerge, engine.MRHash, engine.INCHash, engine.DINCHash} {
		t.Run(pl.String(), func(t *testing.T) {
			clean := runReal(t, chaosJob(t, pl), queries.NewClickCount, 4)
			job := chaosJob(t, pl)
			job.Faults = engine.FaultPlan{
				KillAtMapProgress: map[int]float64{1: 0.5},
				MapFailures:       map[int]int{0: 1, 3: 1},
				FailPoint:         0.5,
				SlowNodes:         map[int]float64{2: 3},
				Speculate:         true,
				ShuffleErrorRate:  0.05,
			}
			if pl.Incremental() {
				job.CheckpointEvery = time.Millisecond
			}
			reps := map[string]*engine.Report{
				"engine": runEngine(t, job, queries.NewClickCount),
				"real":   runReal(t, job, queries.NewClickCount, 4),
			}
			for backend, rep := range reps {
				requireSameAnswers(t, clean, rep, backend)
				if rep.NodesLost != 1 || rep.FetchRetries == 0 {
					t.Errorf("%s: NodesLost = %d, FetchRetries = %d, want 1 and > 0",
						backend, rep.NodesLost, rep.FetchRetries)
				}
			}
		})
	}

	// Disk damage on both backends: transient I/O errors and write-time
	// bit flips until the map barrier, with a map buffer small enough that
	// sort-merge spills map-side. The DES reads damaged frames back on
	// every platform (one reduce slot and a one-output slot cache send
	// second-wave fetches to disk); the real backend shuffles in memory,
	// so only sort-merge's map-side spills are read back and verified
	// there.
	for _, pl := range []engine.Platform{engine.SortMerge, engine.MRHash, engine.INCHash, engine.DINCHash} {
		t.Run("disk/"+pl.String(), func(t *testing.T) {
			job := chaosJob(t, pl)
			job.Input = testClicks(t, 192<<10, 12<<10)
			job.Cluster.Checksums = true
			job.Cluster.MapBuffer = 1 << 10
			job.Cluster.SlotCache, job.Cluster.ReduceSlots = 1, 1
			clean := runReal(t, job, queries.NewClickCount, 4)
			job.Faults.Disk = engine.DiskFaultPlan{IOErrorRate: 0.05, CorruptRate: 0.2}

			des := runEngine(t, job, queries.NewClickCount)
			requireSameAnswers(t, clean, des, "engine")
			if des.IORetries == 0 || des.CorruptFramesDetected == 0 {
				t.Errorf("engine: IORetries = %d, CorruptFramesDetected = %d, want > 0 each",
					des.IORetries, des.CorruptFramesDetected)
			}

			// On MR-hash the plan runs a second time with a straggler racing
			// a speculative twin, which rolls its own disk damage; only the
			// winner writes the map output.
			plans := []engine.FaultPlan{job.Faults}
			if pl == engine.MRHash {
				spec := job.Faults
				spec.SlowNodes, spec.Speculate = map[int]float64{2: 3}, true
				plans = append(plans, spec)
			}
			for _, plan := range plans {
				job.Faults = plan
				var base *engine.Report
				for _, workers := range []int{1, 4, 8} {
					rep := runReal(t, job, queries.NewClickCount, workers)
					requireSameAnswers(t, clean, rep, fmt.Sprintf("real, speculate %v, %d workers", plan.Speculate, workers))
					if base == nil {
						base = rep
					} else if d := job.RealRuns().Diff(base, rep); d != "" {
						t.Errorf("real, speculate %v, %d workers: report differs from 1 worker (field %s)", plan.Speculate, workers, d)
					}
				}
				if wantCorrupt := pl == engine.SortMerge; base.IORetries == 0 || (base.CorruptFramesDetected > 0) != wantCorrupt {
					t.Errorf("real, speculate %v: IORetries = %d, CorruptFramesDetected = %d, want > 0 and (> 0) == %v",
						plan.Speculate, base.IORetries, base.CorruptFramesDetected, wantCorrupt)
				}
			}
		})
	}

	// One interpretation (engine.JobFrame, task_faults.go): under a node
	// kill both backends lose, re-execute and combine the same chunks and
	// restart the same reducers.
	// A kill with map failures and transient shuffle errors, node
	// combining on, flat and through a fan-in-3 tree.
	for _, pl := range []engine.Platform{engine.MRHash, engine.INCHash} {
		for _, fanIn := range []int{0, 3} {
			t.Run(fmt.Sprintf("kill-combine/%s/fanin%d", pl, fanIn), func(t *testing.T) {
				job := chaosJob(t, pl)
				job.NodeCombine, job.AggFanIn = engine.NodeCombineOn, fanIn
				clean := runReal(t, job, queries.NewClickCount, 4)
				job.Faults = engine.FaultPlan{
					KillAtMapProgress: map[int]float64{1: 0.5},
					MapFailures:       map[int]int{0: 1},
					FailPoint:         0.5,
					ShuffleErrorRate:  0.05,
				}
				des := runEngine(t, job, queries.NewClickCount)
				requireSameAnswers(t, clean, des, "engine")
				requireFaultParity(t, job, des, runReal(t, job, queries.NewClickCount, 4), "real")
				if des.NodeCombineInputRecords == 0 {
					t.Error("engine: no chunk combined under a one-node kill")
				}
			})
		}
	}
	// A kill, on 64 chunks, at three points of the map phase, with
	// combining off and on: alone, and with injected failures in
	// reducers 1 and 4, which start on the dying node, and in reducer 2,
	// which does not (engine.ReduceTask.Next injects only attempts on
	// never-dying nodes).
	for _, row := range []struct {
		name    string
		failing map[int]int
	}{{"kill-only", nil}, {"kill-reduce-fail", map[int]int{1: 1, 2: 1, 4: 2}}} {
		for _, pl := range []engine.Platform{engine.MRHash, engine.INCHash} {
			for _, frac := range []float64{0.3, 0.5, 0.8} {
				for _, mode := range []engine.NodeCombineMode{engine.NodeCombineOff, engine.NodeCombineOn} {
					t.Run(fmt.Sprintf("%s/%s/%.1f/combine-%s", row.name, pl, frac, mode), func(t *testing.T) {
						job := chaosJob(t, pl)
						job.Input = testClicks(t, 384<<10, 6<<10)
						job.NodeCombine = mode
						clean := runReal(t, job, queries.NewClickCount, 4)
						job.Faults = engine.FaultPlan{KillAtMapProgress: map[int]float64{1: frac}}
						if row.failing != nil {
							job.Faults.ReduceFailures, job.Faults.FailPoint = row.failing, 0.5
						}
						des := runEngine(t, job, queries.NewClickCount)
						requireSameAnswers(t, clean, des, "engine")
						requireFaultParity(t, job, des, runReal(t, job, queries.NewClickCount, 4), "real")
					})
				}
			}
		}
	}
}

// TestDiskDamageEndsAtMapBarrier: on both backends disk damage is live
// in the map phase only. A 90% I/O error rate on the job output, which
// is written only after every map task has finished, injects nothing;
// the same rate on the map input is retried. Answers equal the clean
// run's either way.
func TestDiskDamageEndsAtMapBarrier(t *testing.T) {
	clean := runReal(t, chaosJob(t, engine.MRHash), queries.NewClickCount, 4)
	for _, backend := range []string{"engine", "real"} {
		for _, c := range []struct {
			class   storage.IOClass
			retries bool
		}{{storage.ReduceOutput, false}, {storage.MapInput, true}} {
			t.Run(fmt.Sprintf("%s/%s", backend, c.class), func(t *testing.T) {
				job := chaosJob(t, engine.MRHash)
				job.Faults.Disk = engine.DiskFaultPlan{IOErrorRate: 0.9, Classes: []storage.IOClass{c.class}}
				var rep *engine.Report
				if backend == "engine" {
					rep = runEngine(t, job, queries.NewClickCount)
				} else {
					rep = runReal(t, job, queries.NewClickCount, 4)
				}
				requireSameAnswers(t, clean, rep, backend)
				if (rep.IORetries > 0) != c.retries {
					t.Errorf("IORetries = %d, want > 0: %v", rep.IORetries, c.retries)
				}
			})
		}
	}
}

// TestRealKillRecoveryAccounting pins the lost-work arithmetic of a
// progress-point kill: with the node killed at fraction p, the first
// ceil(p × maps) chunks assigned to it re-execute, every reducer
// homed there restarts once, and the double-counted map work shows up
// in MapInputRecords exactly as it does on the DES.
func TestRealKillRecoveryAccounting(t *testing.T) {
	job := chaosJob(t, engine.MRHash)
	job.Faults = engine.FaultPlan{KillAtMapProgress: map[int]float64{1: 0.5}}
	clean := runReal(t, chaosJob(t, engine.MRHash), queries.NewClickCount, 4)
	rep := runReal(t, job, queries.NewClickCount, 4)

	if rep.NodesLost != 1 {
		t.Errorf("NodesLost = %d, want 1", rep.NodesLost)
	}
	if rep.ReExecutedMapTasks == 0 {
		t.Errorf("ReExecutedMapTasks = 0, want > 0")
	}
	// Reducers homed on the dead node (ridx % 3 == 1, of 6 reducers:
	// ridx 1 and 4) restart on survivors.
	if rep.RestartedReduceTasks != 2 {
		t.Errorf("RestartedReduceTasks = %d, want 2", rep.RestartedReduceTasks)
	}
	// Re-executed maps are completed work and count again — the DES's
	// own double-counting under lost outputs.
	if rep.MapInputRecords <= clean.MapInputRecords {
		t.Errorf("MapInputRecords = %d, want > clean %d (re-executed maps count again)",
			rep.MapInputRecords, clean.MapInputRecords)
	}
	requireSameAnswers(t, clean, rep, "kill")
}

// TestCheckpointSuffixReplay is the PR 2 recovery claim on the real
// backend: a checkpointed INC/DINC reducer that crashes restarts from
// its newest image and replays only the post-checkpoint suffix, so
// its recovery re-reads far fewer bytes than the same crash without
// checkpoints, which must refetch and reconsume everything.
func TestCheckpointSuffixReplay(t *testing.T) {
	for _, pl := range []engine.Platform{engine.INCHash, engine.DINCHash} {
		t.Run(pl.String(), func(t *testing.T) {
			m := testModel()
			input := testClicks(t, 256<<10, 16<<10) // 16 chunks: a long unit suffix to replay
			newJob := func(ckpt time.Duration) engine.JobSpec {
				return engine.JobSpec{
					Input:    input,
					Platform: pl,
					Cluster:  testCluster(m),
					Hints:    mr.Hints{Km: 0.1, DistinctKeys: 400},
					Seed:     1,
					// Crash every reducer once, after it has consumed its
					// whole shuffle (FailPoint 1): the worst-case restart.
					Faults: engine.FaultPlan{
						ReduceFailures: map[int]int{0: 1, 1: 1, 2: 1, 3: 1, 4: 1, 5: 1},
						FailPoint:      1,
					},
					CollectOutput:   true,
					CheckpointEvery: ckpt,
				}
			}
			clean := runReal(t, engine.JobSpec{
				Input: input, Platform: pl, Cluster: testCluster(m),
				Hints: mr.Hints{Km: 0.1, DistinctKeys: 400}, Seed: 1, CollectOutput: true,
			}, queries.NewClickCount, 4)

			// CheckpointEvery of 1ns triggers a checkpoint after every
			// consumed unit that advances the CPU ledger: the restart
			// replays at most one unit per reducer.
			ckpt := runReal(t, newJob(time.Nanosecond), queries.NewClickCount, 4)
			bare := runReal(t, newJob(0), queries.NewClickCount, 4)

			requireSameAnswers(t, clean, ckpt, "checkpointed restart")
			requireSameAnswers(t, clean, bare, "bare restart")
			if ckpt.Checkpoints == 0 {
				t.Fatal("Checkpoints = 0, want > 0")
			}
			if ckpt.RestartedReduceTasks != 6 || bare.RestartedReduceTasks != 6 {
				t.Fatalf("RestartedReduceTasks = %d (ckpt), %d (bare), want 6 and 6",
					ckpt.RestartedReduceTasks, bare.RestartedReduceTasks)
			}
			// The bare restart refetches the entire consumed shuffle; the
			// checkpointed restart reads its state image plus at most one
			// refetched unit per reducer.
			if ckpt.RecoveryReadBytes >= bare.RecoveryReadBytes {
				t.Errorf("RecoveryReadBytes = %d with checkpoints, %d without: suffix replay saved nothing",
					ckpt.RecoveryReadBytes, bare.RecoveryReadBytes)
			}
			if ckpt.CheckpointBytes == 0 {
				t.Error("CheckpointBytes = 0, want > 0")
			}
		})
	}
}

// poisonClicks wraps clickcount so Map panics on a deterministic,
// content-selected slice of records (timestamp digits "37" at
// positions 11–12, the simfuzz convention) — quarantine fodder. The
// wrapper hides the optional interfaces, so it runs on the
// non-incremental platforms only.
type poisonClicks struct{ inner mr.Query }

func (q *poisonClicks) Name() string { return q.inner.Name() }

func (q *poisonClicks) Map(record []byte, emit func(k, v []byte)) {
	if len(record) >= 13 && record[11] == '3' && record[12] == '7' {
		panic("poison record")
	}
	q.inner.Map(record, emit)
}

func (q *poisonClicks) Reduce(key []byte, values kvenc.ValueIter, out mr.OutputWriter) {
	q.inner.Reduce(key, values, out)
}

// TestRealFaultedQuarantine drives the bad-record quarantine through a
// faulted run: re-executed and retried attempts re-quarantine the same
// records, and the count stays deterministic across worker counts even
// though it double-counts with the re-executed work (the DES's own
// semantics for lost outputs).
func TestRealFaultedQuarantine(t *testing.T) {
	job := chaosJob(t, engine.MRHash)
	job.SkipBadRecords = 1 << 20
	job.Faults = engine.FaultPlan{
		KillAtMapProgress: map[int]float64{1: 0.4},
		MapFailures:       map[int]int{0: 1},
		FailPoint:         0.7,
	}
	newQ := func() mr.Query { return &poisonClicks{inner: queries.NewClickCount()} }
	var base *engine.Report
	for _, workers := range []int{1, 4, 8} {
		rep := runReal(t, job, newQ, workers)
		if rep.QuarantinedRecords == 0 {
			t.Fatalf("QuarantinedRecords = 0, want > 0 with a poisoned query")
		}
		if base == nil {
			base = rep
			continue
		}
		if rep.QuarantinedRecords != base.QuarantinedRecords {
			t.Errorf("%d workers: QuarantinedRecords = %d, want %d",
				workers, rep.QuarantinedRecords, base.QuarantinedRecords)
		}
	}
}

// TestAttemptChainCleanEquivalence: a fault-free job and the same job
// under a checkpoint interval no ledger reaches are the same run at any
// worker count. The second once selected the attempt chains and the
// first the clean task loops beside them.
func TestAttemptChainCleanEquivalence(t *testing.T) {
	for _, pl := range []engine.Platform{engine.SortMerge, engine.HOP, engine.MRHash, engine.INCHash, engine.DINCHash} {
		clean := runReal(t, chaosJob(t, pl), queries.NewClickCount, 1)
		job := chaosJob(t, pl)
		job.CheckpointEvery = 1000 * time.Hour
		for _, workers := range []int{1, 4} {
			idle := runReal(t, job, queries.NewClickCount, workers)
			if d := job.RealRuns().Diff(clean, idle); d != "" {
				t.Errorf("%s, %d workers: report differs under an idle checkpoint interval (field %s)", pl, workers, d)
			}
		}
	}
}

// TestAttemptChainSpanNames: attempt 0 of a reduce task is named by the
// task, with or without a fault plan; only retries carry ".aN".
func TestAttemptChainSpanNames(t *testing.T) {
	reduceSpans := func(rep *engine.Report) []string {
		var out []string
		for _, s := range rep.Spans {
			if strings.HasPrefix(s.Kind, "reduce") {
				out = append(out, s.Name+" "+s.Kind)
			}
		}
		sort.Strings(out)
		return out
	}
	var want []string
	for r := 0; r < 6; r++ {
		want = append(want, fmt.Sprintf("reduce%03d reduce", r))
	}
	job := chaosJob(t, engine.INCHash)
	if got := reduceSpans(runReal(t, job, queries.NewClickCount, 4)); !reflect.DeepEqual(got, want) {
		t.Errorf("clean run: reduce spans %q, want %q", got, want)
	}
	job.Faults.ReduceFailures = map[int]int{3: 1}
	want[3] = "reduce003 reduce-failed"
	want = append(want, "reduce003.a1 reduce")
	sort.Strings(want)
	if got := reduceSpans(runReal(t, job, queries.NewClickCount, 4)); !reflect.DeepEqual(got, want) {
		t.Errorf("one reduce failure: reduce spans %q, want %q", got, want)
	}
}
