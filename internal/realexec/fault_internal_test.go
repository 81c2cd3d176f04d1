package realexec

import (
	"bytes"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/cost"
	"repro/internal/engine"
	"repro/internal/mr"
	"repro/internal/queries"
	"repro/internal/reference"
	"repro/internal/workload"
)

// TestWaitUnitWatchdog pins the deadlock watchdog: a reducer stuck
// waiting for a lost unit whose re-execution never lands panics with a
// stall diagnosis (surfacing as a task error) instead of hanging the
// job forever.
func TestWaitUnitWatchdog(t *testing.T) {
	old := shuffleWatchdog
	shuffleWatchdog = 20 * time.Millisecond
	defer func() { shuffleWatchdog = old }()

	r := &run{}
	u := &unit{chunk: 3, ready: make(chan struct{})} // never closed
	defer func() {
		rec := recover()
		if rec == nil {
			t.Fatal("waitUnit returned without the unit becoming ready")
		}
		msg := ""
		if err, ok := rec.(error); ok {
			msg = err.Error()
		}
		if !strings.Contains(msg, "stalled") {
			t.Fatalf("watchdog panic = %v, want a stall diagnosis", rec)
		}
		if r.fetchRetries.Load() == 0 {
			t.Error("fetchRetries = 0, want > 0 after backoff rounds")
		}
	}()
	r.waitUnit(u)
}

// TestWaitUnitReady covers the fast paths: nil ready (never lost) and
// an already-republished unit return immediately without retries.
func TestWaitUnitReady(t *testing.T) {
	r := &run{}
	r.waitUnit(&unit{})
	ready := make(chan struct{})
	close(ready)
	r.waitUnit(&unit{ready: ready})
	if n := r.fetchRetries.Load(); n != 0 {
		t.Errorf("fetchRetries = %d, want 0 on available units", n)
	}
}

// internalJob is the golden clickcount job on its 3-node cluster.
func internalJob(pl engine.Platform) engine.JobSpec {
	cs := workload.DefaultClickSpec(96<<10, 12<<10, 77)
	cs.Users, cs.URLs, cs.Duration, cs.Jitter = 400, 100, 2*time.Hour, time.Second
	c := engine.PaperCluster(cost.Default(1.0 / 4096))
	c.Nodes, c.Cores, c.MapSlots, c.ReduceSlots, c.R = 3, 2, 2, 2, 2
	return engine.JobSpec{Input: workload.NewClickStream(cs), Platform: pl, Cluster: c,
		Hints: mr.Hints{Km: 0.1, DistinctKeys: 400}, Seed: 1, CollectOutput: true}
}

// sortedRows canonicalizes a run's collected output.
func sortedRows(rep *engine.Report) []string {
	var rows []string
	for _, kv := range rep.Outputs {
		rows = append(rows, kv[0]+"\t"+kv[1])
	}
	sort.Strings(rows)
	return rows
}

// TestReleaseDropsConsumedOutputs: on a plan no reduce attempt can
// restart, the reducer that consumes a map output last drops it, so
// when the job ends no output holds its partitions (the run keeps no
// attempt's store, only its counters: addStore). Under a
// reduce-failure plan every output stays resident for the restarts, and
// the answers equal the clean run's.
func TestReleaseDropsConsumedOutputs(t *testing.T) {
	runJob := func(faults engine.FaultPlan) (*run, *engine.Report) {
		job := internalJob(engine.INCHash)
		job.Faults = faults
		job.Cluster.Parallelism = 2
		r, err := newRun(job, queries.NewClickCount)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := r.execute()
		if err != nil {
			t.Fatal(err)
		}
		return r, rep
	}
	resident := func(r *run) (n int) {
		for _, s := range r.slots {
			for _, u := range s.units {
				if u.parts.Segs != nil {
					n++
				}
			}
		}
		return n
	}

	clean, cleanRep := runJob(engine.FaultPlan{})
	if n := resident(clean); n != 0 {
		t.Errorf("clean run: %d of %d map outputs still resident", n, clean.TotalMaps)
	}
	failed, failedRep := runJob(engine.FaultPlan{ReduceFailures: map[int]int{1: 1, 4: 2}, FailPoint: 0.5})
	if n := resident(failed); n != failed.TotalMaps {
		t.Errorf("reduce-failure run: %d of %d map outputs resident, want all", n, failed.TotalMaps)
	}
	if failedRep.RestartedReduceTasks != 3 {
		t.Errorf("RestartedReduceTasks = %d, want 3", failedRep.RestartedReduceTasks)
	}
	if !slices.Equal(sortedRows(cleanRep), sortedRows(failedRep)) || cleanRep.OutputRecords != failedRep.OutputRecords {
		t.Error("reduce-failure run answers differently from the clean run")
	}
}

// TestSmallestResidencyCap runs every plan that keeps release on, on
// every platform, at the smallest residency cap a spec allows: one node
// that keeps one map output in memory (SlotCache 1), so the map workers
// hold one output between them until every reducer has dropped it.
// Speculation has no second node to back up on, so its row runs the
// straggler alone; HOP takes transient disk errors and no other fault,
// and every other platform restarts reducers under disk damage. No
// plan wedges the job, and every answer is the reference's.
func TestSmallestResidencyCap(t *testing.T) {
	plans := []struct {
		name   string
		faults engine.FaultPlan
	}{
		{"clean", engine.FaultPlan{}},
		{"stragglers", engine.FaultPlan{SlowNodes: map[int]float64{0: 3}, Speculate: true}},
		{"map-failures", engine.FaultPlan{MapFailures: map[int]int{0: 1, 3: 2}, FailPoint: 0.5}},
		{"shuffle-errors", engine.FaultPlan{ShuffleErrorRate: 0.05}},
		{"disk-damage", engine.FaultPlan{Disk: engine.DiskFaultPlan{IOErrorRate: 0.05}}},
	}
	var want []string
	for _, o := range reference.Run(queries.NewClickCount(), internalJob(engine.HOP).Input) {
		want = append(want, o.Key+"\t"+o.Value)
	}
	sort.Strings(want)
	for _, pl := range []engine.Platform{engine.SortMerge, engine.HOP, engine.MRHash, engine.INCHash, engine.DINCHash} {
		for _, plan := range plans {
			disk := plan.faults.Disk.IOErrorRate > 0
			if plan.name != "clean" && disk != (pl == engine.HOP) {
				continue
			}
			t.Run(pl.String()+"/"+plan.name, func(t *testing.T) {
				job := internalJob(pl)
				job.Cluster.Nodes, job.Cluster.SlotCache = 1, 1
				job.Faults = plan.faults
				job.Cluster.Parallelism = 4
				r, err := newRun(job, queries.NewClickCount)
				if err != nil {
					t.Fatal(err)
				}
				if cap(r.resident) != 1 {
					t.Fatalf("residency cap = %d, want 1", cap(r.resident))
				}
				rep, err := r.execute()
				if err != nil {
					t.Fatal(err)
				}
				if got := sortedRows(rep); !slices.Equal(got, want) {
					t.Errorf("%d output rows differ from the reference's %d", len(got), len(want))
				}
			})
		}
	}
}

// slowMap is a query whose Map stalls on one record.
type slowMap struct {
	mr.Query
	record []byte
	stall  time.Duration
}

func (q slowMap) Map(record []byte, emit func(k, v []byte)) {
	if bytes.Equal(record, q.record) {
		time.Sleep(q.stall)
	}
	q.Query.Map(record, emit)
}

// TestSlowPrimaryIsNotAStall: the watchdog times only the re-execution
// of a lost output. Reducers that wait on a slow primary map for longer
// than the watchdog keep waiting, and the job answers as it does with
// no stall.
func TestSlowPrimaryIsNotAStall(t *testing.T) {
	old := shuffleWatchdog
	shuffleWatchdog = 20 * time.Millisecond
	defer func() { shuffleWatchdog = old }()

	job := internalJob(engine.MRHash)
	first, _, _ := bytes.Cut(job.Input.ChunkBytes(job.Input.NumChunks()-1), []byte("\n"))
	var reps []*engine.Report
	for _, stall := range []time.Duration{0, 10 * shuffleWatchdog} {
		newQ := func() mr.Query { return slowMap{queries.NewClickCount(), first, stall} }
		rep, err := Run(job, newQ)
		if err != nil {
			t.Fatalf("stall %v: %v", stall, err)
		}
		reps = append(reps, rep)
	}
	if !slices.Equal(sortedRows(reps[0]), sortedRows(reps[1])) {
		t.Error("the stalled run answers differently")
	}
}
