package engine

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/cost"
	"repro/internal/mr"
	"repro/internal/queries"
	"repro/internal/workload"
)

// clickCountSpec is the shared workload for the fault suite: click
// counting is a commutative sum, so any surviving execution — whatever
// order re-executions and backups deliver the pairs in — must produce
// byte-identical final answers.
func clickCountSpec(m cost.Model, input *workload.ClickStream, pl Platform) JobSpec {
	return JobSpec{
		Query:    queries.NewClickCount(),
		Input:    input,
		Platform: pl,
		Cluster:  testCluster(m),
		Hints:    mr.Hints{Km: 0.1, DistinctKeys: 400},
		Seed:     1,
	}
}

// spanKinds counts spans by kind.
func spanKinds(rep *Report) map[string]int {
	k := map[string]int{}
	for _, s := range rep.Spans {
		k[s.Kind]++
	}
	return k
}

// TestNodeFailureDifferential is the tentpole differential: every
// platform, run with a node crash, a straggler, and an injected reduce
// failure at once, must produce the same sorted output set as its
// fault-free run. The node dies halfway through the map tasks;
// heartbeat times are derived from each platform's clean makespan.
func TestNodeFailureDifferential(t *testing.T) {
	m := testModel()
	input := testClicks(t, 192<<10, 12<<10)
	for _, pl := range []Platform{SortMerge, MRHash, INCHash, DINCHash} {
		clean := runJob(t, clickCountSpec(m, input, pl))
		mf := clean.MapFinishTime

		spec := clickCountSpec(m, input, pl)
		spec.Faults = FaultPlan{
			KillAtMapProgress: map[int]float64{2: 0.5},
			SlowNodes:         map[int]float64{1: 2},
			ReduceFailures:    map[int]int{0: 1},
			FailPoint:         0.5,
			HeartbeatInterval: mf / 100,
			HeartbeatTimeout:  mf / 25,
		}
		if pl.Incremental() {
			spec.CheckpointEvery = mf / 8
		}
		faulty := runJob(t, spec)

		equalStrings(t, pl.String(), sortedOutputs(clean, kvLine), sortedOutputs(faulty, kvLine))
		if faulty.NodesLost != 1 {
			t.Errorf("%v: NodesLost = %d, want 1", pl, faulty.NodesLost)
		}
		// Reducer 0 fails once by injection; reducers 2 and 5 lived on
		// the killed node and must restart at least once each.
		if faulty.RestartedReduceTasks < 3 {
			t.Errorf("%v: RestartedReduceTasks = %d, want ≥ 3", pl, faulty.RestartedReduceTasks)
		}
		if faulty.WastedCPUPerNode <= 0 {
			t.Errorf("%v: no wasted CPU recorded for aborted attempts", pl)
		}
		if !pl.Incremental() {
			// Restart-from-scratch platforms need every lost map output
			// back; the killed node held about a third of them.
			if faulty.ReExecutedMapTasks < 1 {
				t.Errorf("%v: ReExecutedMapTasks = %d, want ≥ 1", pl, faulty.ReExecutedMapTasks)
			}
		} else {
			if faulty.Checkpoints == 0 {
				t.Errorf("%v: no checkpoints taken", pl)
			}
			if faulty.RecoveryReadBytes == 0 {
				t.Errorf("%v: restarted reducers read no recovery state", pl)
			}
		}
		for _, s := range faulty.Spans {
			if s.End < s.Start {
				t.Errorf("%v: span %s ends before it starts", pl, s.Name)
			}
		}
		if clean.NodesLost != 0 || clean.RestartedReduceTasks != 0 || clean.Checkpoints != 0 ||
			clean.FetchRetries != 0 || clean.WastedCPUPerNode != 0 {
			t.Errorf("%v: clean run reports recovery activity: %+v", pl, clean)
		}
	}
}

// TestSortMergeReduceFailure is the satellite: an injected reduce-task
// failure on the sort-merge path re-shuffles that reducer's input
// (visible as recovery read bytes) without touching the maps, and the
// answers do not change.
func TestSortMergeReduceFailure(t *testing.T) {
	m := testModel()
	input := testClicks(t, 192<<10, 12<<10)
	clean := runJob(t, clickCountSpec(m, input, SortMerge))

	spec := clickCountSpec(m, input, SortMerge)
	spec.Faults = FaultPlan{ReduceFailures: map[int]int{1: 1}, FailPoint: 0.6}
	faulty := runJob(t, spec)

	equalStrings(t, "reduce-failure", sortedOutputs(clean, kvLine), sortedOutputs(faulty, kvLine))
	if faulty.RestartedReduceTasks != 1 {
		t.Errorf("RestartedReduceTasks = %d, want 1", faulty.RestartedReduceTasks)
	}
	if got := spanKinds(faulty)["reduce-failed"]; got != 1 {
		t.Errorf("reduce-failed spans = %d, want 1", got)
	}
	if faulty.RecoveryReadBytes <= 0 {
		t.Error("restarted reducer re-fetched nothing: refetch accounting lost")
	}
	if faulty.ReExecutedMapTasks != 0 || faulty.NodesLost != 0 {
		t.Errorf("reduce failure must not touch maps: reexec=%d lost=%d",
			faulty.ReExecutedMapTasks, faulty.NodesLost)
	}
	if faulty.InputBytes != clean.InputBytes {
		t.Errorf("map input re-read changed: %d vs %d", faulty.InputBytes, clean.InputBytes)
	}
	if faulty.OutputRecords != clean.OutputRecords {
		t.Errorf("output records changed: %d vs %d (exactly-once violated)",
			faulty.OutputRecords, clean.OutputRecords)
	}
}

// TestFaultDeterminismAcrossWorkers extends the fork/join determinism
// differential to the recovery machinery: a run with a node kill, a
// straggler, speculation, an injected reduce failure, and checkpointing
// all at once must produce a bit-identical Report for any compute-pool
// size.
func TestFaultDeterminismAcrossWorkers(t *testing.T) {
	m := testModel()
	input := testClicks(t, 192<<10, 12<<10)
	clean := runJob(t, clickCountSpec(m, input, INCHash))
	mf := clean.MapFinishTime

	run := func(workers int) *Report {
		spec := clickCountSpec(m, input, INCHash)
		spec.Cluster.Parallelism = workers
		spec.CheckpointEvery = mf / 8
		spec.Faults = FaultPlan{
			KillAtMapProgress: map[int]float64{2: 0.5},
			SlowNodes:         map[int]float64{1: 3},
			ReduceFailures:    map[int]int{1: 1},
			FailPoint:         0.5,
			Speculate:         true,
			HeartbeatInterval: mf / 100,
			HeartbeatTimeout:  mf / 25,
		}
		return runJob(t, spec)
	}
	serial := run(1)
	if serial.NodesLost != 1 {
		t.Fatalf("fault plan inert: %d nodes lost", serial.NodesLost)
	}
	for _, w := range []int{3, 8} {
		if d := SimRuns.Diff(serial, run(w)); d != "" {
			t.Fatalf("Workers=%d fault-injected report differs from serial run: %s", w, d)
		}
	}
}

// TestKillMidShuffleDoesNotDeadlock is the regression for the kernel
// liveness property: a node crash while reducers are parked waiting for
// its map outputs (or mid-fetch from it) must never strand the
// simulation — the failure detector's broadcast wakes every waiter and
// the job completes with correct answers. The wall-clock watchdog turns
// a livelock into a test failure instead of a hung suite.
func TestKillMidShuffleDoesNotDeadlock(t *testing.T) {
	m := testModel()
	input := testClicks(t, 192<<10, 12<<10)
	for _, pl := range []Platform{SortMerge, INCHash} {
		clean := runJob(t, clickCountSpec(m, input, pl))
		mf := clean.MapFinishTime
		for _, frac := range []int64{10, 45, 80} {
			spec := clickCountSpec(m, input, pl)
			spec.CollectOutput = true
			spec.Faults = FaultPlan{
				KillAtMapProgress: map[int]float64{1: float64(frac) / 100},
				HeartbeatInterval: mf / 100,
				HeartbeatTimeout:  mf / 20,
			}
			if pl.Incremental() {
				spec.CheckpointEvery = mf / 8
			}
			type outcome struct {
				rep *Report
				err error
			}
			done := make(chan outcome, 1)
			go func() {
				rep, err := Run(spec)
				done <- outcome{rep, err}
			}()
			select {
			case o := <-done:
				if o.err != nil {
					t.Fatalf("%v kill@%d%%: %v", pl, frac, o.err)
				}
				equalStrings(t, pl.String(), sortedOutputs(clean, kvLine), sortedOutputs(o.rep, kvLine))
				if o.rep.NodesLost != 1 {
					t.Errorf("%v kill@%d%%: NodesLost = %d", pl, frac, o.rep.NodesLost)
				}
			case <-time.After(120 * time.Second):
				t.Fatalf("%v kill@%d%%: kernel did not terminate (deadlock)", pl, frac)
			}
		}
	}
}

// TestFetchRetryBackoff delays the failure detector so reducers hit the
// crashed node with live fetch attempts first: those must retry with
// backoff (counted), then recover normally once the node is declared.
// One reduce slot per node makes a second reduce wave, whose reducers
// start fetching only after the first wave finishes, so the crash
// strands published-but-unfetched outputs.
func TestFetchRetryBackoff(t *testing.T) {
	m := testModel()
	input := testClicks(t, 192<<10, 12<<10)
	mk := func() JobSpec {
		c := testCluster(m)
		c.ReduceBuffer = 16 << 10
		c.Page = 1 << 10
		c.ReduceSlots = 1
		return JobSpec{
			Query:    queries.NewSessionization(5*time.Minute, 512, 5*time.Second),
			Input:    input,
			Platform: SortMerge,
			Cluster:  c,
			Hints:    mr.Hints{Km: 1, DistinctKeys: 400},
			Seed:     1,
		}
	}
	clean := runJob(t, mk())
	mf := clean.MapFinishTime

	spec := mk()
	spec.Faults = FaultPlan{
		KillAtMapProgress: map[int]float64{2: 0.4},
		HeartbeatInterval: mf / 100,
		// Declaration comes late: a window several backoff periods wide,
		// reaching past the first reduce wave, in which fetches against
		// the crashed node keep failing.
		HeartbeatTimeout: mf,
	}
	faulty := runJob(t, spec)
	equalStrings(t, "fetch-retry", sortedOutputs(clean, clickLine), sortedOutputs(faulty, clickLine))
	if faulty.FetchRetries == 0 {
		t.Error("no fetch retries recorded before the node was declared dead")
	}
	if faulty.NodesLost != 1 {
		t.Errorf("NodesLost = %d, want 1", faulty.NodesLost)
	}
}

// TestSpeculativeBackups pins an 8× straggler node and checks that the
// tracker launches backup attempts on other machines, that a backup
// wins at least once, that duplicate outputs are suppressed (answers
// unchanged), and that speculation actually pulls the map finish time
// in versus the same straggler without speculation.
func TestSpeculativeBackups(t *testing.T) {
	m := testModel()
	input := testClicks(t, 192<<10, 12<<10)
	clean := runJob(t, clickCountSpec(m, input, SortMerge))
	mf := clean.MapFinishTime

	slowSpec := func(speculate bool) JobSpec {
		spec := clickCountSpec(m, input, SortMerge)
		spec.Faults = FaultPlan{
			SlowNodes:         map[int]float64{2: 8},
			Speculate:         speculate,
			HeartbeatInterval: mf / 50,
		}
		return spec
	}
	noSpec := runJob(t, slowSpec(false))
	withSpec := runJob(t, slowSpec(true))

	equalStrings(t, "straggler", sortedOutputs(clean, kvLine), sortedOutputs(noSpec, kvLine))
	equalStrings(t, "speculation", sortedOutputs(clean, kvLine), sortedOutputs(withSpec, kvLine))
	if withSpec.SpeculativeBackups < 1 {
		t.Fatalf("SpeculativeBackups = %d, want ≥ 1", withSpec.SpeculativeBackups)
	}
	if withSpec.SpeculativeWins < 1 {
		t.Errorf("SpeculativeWins = %d, want ≥ 1", withSpec.SpeculativeWins)
	}
	if withSpec.MapFinishTime >= noSpec.MapFinishTime {
		t.Errorf("speculation did not help: map finish %v with vs %v without",
			withSpec.MapFinishTime, noSpec.MapFinishTime)
	}
	if noSpec.SpeculativeBackups != 0 {
		t.Errorf("backups launched with speculation disabled: %d", noSpec.SpeculativeBackups)
	}
}

// TestCheckpointRecoveryReadsLess is the recovery-cost comparison the
// ISSUE's experiment builds on, at test scale: after the same
// mid-shuffle node kill, a checkpointed INC-hash reducer restores its
// compact state image and replays only the unconsumed suffix, while
// sort-merge re-fetches its whole input — so INC's recovery read volume
// must be strictly smaller.
func TestCheckpointRecoveryReadsLess(t *testing.T) {
	m := testModel()
	input := testClicks(t, 384<<10, 12<<10)

	recover := func(pl Platform) *Report {
		clean := runJob(t, clickCountSpec(m, input, pl))
		mf := clean.MapFinishTime
		spec := clickCountSpec(m, input, pl)
		spec.Faults = FaultPlan{
			KillAtMapProgress: map[int]float64{2: 0.75},
			HeartbeatInterval: mf / 100,
			HeartbeatTimeout:  mf / 25,
		}
		if pl.Incremental() {
			spec.CheckpointEvery = mf / 10
		}
		faulty := runJob(t, spec)
		equalStrings(t, pl.String(), sortedOutputs(clean, kvLine), sortedOutputs(faulty, kvLine))
		return faulty
	}
	sm := recover(SortMerge)
	inc := recover(INCHash)

	if inc.Checkpoints == 0 {
		t.Fatal("INC-hash run took no checkpoints")
	}
	if inc.RecoveryReadBytes <= 0 || sm.RecoveryReadBytes <= 0 {
		t.Fatalf("recovery reads not recorded: sm=%d inc=%d", sm.RecoveryReadBytes, inc.RecoveryReadBytes)
	}
	if inc.RecoveryReadBytes >= sm.RecoveryReadBytes {
		t.Errorf("checkpointed recovery not cheaper: INC re-read %d vs SM %d",
			inc.RecoveryReadBytes, sm.RecoveryReadBytes)
	}
}

// TestCheckpointOnlyRunMatchesClean enables checkpointing with no
// faults: the checkpoints are pure overhead (never restored) and must
// not change a single answer or trigger any recovery accounting.
func TestCheckpointOnlyRunMatchesClean(t *testing.T) {
	m := testModel()
	input := testClicks(t, 192<<10, 12<<10)
	for _, pl := range []Platform{INCHash, DINCHash} {
		clean := runJob(t, clickCountSpec(m, input, pl))
		spec := clickCountSpec(m, input, pl)
		spec.CheckpointEvery = clean.MapFinishTime / 6
		ck := runJob(t, spec)
		equalStrings(t, pl.String(), sortedOutputs(clean, kvLine), sortedOutputs(ck, kvLine))
		if ck.Checkpoints == 0 || ck.CheckpointBytes <= 0 {
			t.Errorf("%v: checkpointing inert: n=%d bytes=%d", pl, ck.Checkpoints, ck.CheckpointBytes)
		}
		if ck.RecoveryReadBytes != 0 || ck.NodesLost != 0 || ck.RestartedReduceTasks != 0 {
			t.Errorf("%v: phantom recovery on a clean checkpointed run: %+v", pl, ck)
		}
	}
}

// TestFaultPlanValidation rejects malformed fault plans up front.
func TestFaultPlanValidation(t *testing.T) {
	m := testModel()
	input := testClicks(t, 48<<10, 12<<10)
	cases := []struct {
		name   string
		mutate func(*JobSpec)
	}{
		{"failpoint above one", func(s *JobSpec) {
			s.Faults.MapFailures = map[int]int{0: 1}
			s.Faults.FailPoint = 1.5
		}},
		{"failpoint negative", func(s *JobSpec) {
			s.Faults.MapFailures = map[int]int{0: 1}
			s.Faults.FailPoint = -0.1
		}},
		{"map chunk out of range", func(s *JobSpec) {
			s.Faults.MapFailures = map[int]int{999: 1}
		}},
		{"map count negative", func(s *JobSpec) {
			s.Faults.MapFailures = map[int]int{0: -2}
		}},
		{"reduce index out of range", func(s *JobSpec) {
			s.Faults.ReduceFailures = map[int]int{99: 1}
		}},
		{"kill index out of range", func(s *JobSpec) {
			s.Faults.KillAtMapProgress = map[int]float64{7: 0.5}
		}},
		{"kill fraction not positive", func(s *JobSpec) {
			s.Faults.KillAtMapProgress = map[int]float64{0: 0}
		}},
		{"no survivors", func(s *JobSpec) {
			s.Faults.KillAtMapProgress = map[int]float64{0: 0.5, 1: 0.5, 2: 0.5}
		}},
		{"slow factor below one", func(s *JobSpec) {
			s.Faults.SlowNodes = map[int]float64{0: 0.5}
		}},
		{"negative checkpoint interval", func(s *JobSpec) {
			s.CheckpointEvery = -time.Second
		}},
		{"faults on hop", func(s *JobSpec) {
			s.Platform = HOP
			s.Faults.KillAtMapProgress = map[int]float64{0: 0.5}
		}},
	}
	for _, tc := range cases {
		spec := clickCountSpec(m, input, SortMerge)
		tc.mutate(&spec)
		if _, err := Run(spec); err == nil {
			t.Errorf("%s: spec accepted, want rejection", tc.name)
		}
	}
}

// TestRunLeavesNoGoroutines: every simulated process is a coroutine
// with a goroutine behind it, and a job spawns thousands; when Run
// returns — finished, killed daemons, processes aborted by a node
// crash — all of them and the compute pool's workers must be gone.
func TestRunLeavesNoGoroutines(t *testing.T) {
	m := testModel()
	input := testClicks(t, 192<<10, 12<<10)
	base := runtime.NumGoroutine()
	settle := func(name string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > base {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines after Run, %d before", name, runtime.NumGoroutine(), base)
			}
			time.Sleep(time.Millisecond)
		}
	}
	var mf time.Duration
	for _, pl := range []Platform{SortMerge, HOP, MRHash, INCHash, DINCHash} {
		spec := clickCountSpec(m, input, pl)
		spec.Cluster.Parallelism = 4
		mf = runJob(t, spec).MapFinishTime
		settle(pl.String())
	}
	spec := clickCountSpec(m, input, DINCHash)
	spec.Cluster.Parallelism = 4
	spec.Faults = FaultPlan{
		KillAtMapProgress: map[int]float64{2: 0.5},
		HeartbeatInterval: mf / 100,
		HeartbeatTimeout:  mf / 25,
	}
	if rep := runJob(t, spec); rep.NodesLost != 1 {
		t.Fatalf("NodesLost = %d, want 1", rep.NodesLost)
	}
	settle("dinc-hash under a node kill")
}
