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
	"repro/internal/storage"
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

// TestReleaseDropsConsumedOutputs: once every reduce task has consumed
// a map output it leaves the heap. On a plan no reduce attempt can
// restart it is dropped, so when the job ends no output is held
// anywhere (the run keeps no attempt's store, only its counters:
// addStore). Under a reduce-failure plan every output is parked in the
// run's scratch file for the restarts instead, none stays in memory,
// and the answers equal the clean run's.
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
	held := func(r *run) (mem, disk int) {
		for i := range r.slots {
			for _, u := range r.slots[i].units {
				if u == nil {
					continue // dropped
				}
				if u.parts.Segs != nil {
					mem++
				}
				if u.ends != nil {
					disk++
				}
			}
		}
		return mem, disk
	}

	clean, cleanRep := runJob(engine.FaultPlan{})
	if mem, disk := held(clean); mem+disk != 0 {
		t.Errorf("clean run: %d of %d map outputs still in memory, %d parked", mem, clean.TotalMaps, disk)
	}
	failed, failedRep := runJob(engine.FaultPlan{ReduceFailures: map[int]int{1: 1, 4: 2}, FailPoint: 0.5})
	if mem, disk := held(failed); mem != 0 || disk != failed.TotalMaps {
		t.Errorf("reduce-failure run: %d of %d map outputs in memory and %d parked, want all parked", mem, failed.TotalMaps, disk)
	}
	if failedRep.RestartedReduceTasks != 3 {
		t.Errorf("RestartedReduceTasks = %d, want 3", failedRep.RestartedReduceTasks)
	}
	if !slices.Equal(sortedRows(cleanRep), sortedRows(failedRep)) || cleanRep.OutputRecords != failedRep.OutputRecords {
		t.Error("reduce-failure run answers differently from the clean run")
	}
}

// TestSmallestResidencyCap runs every plan on every platform that takes
// it at the smallest residency cap: one map output in memory, so the
// map workers hold one output between them until every reducer has
// consumed it. Every other output goes to the scratch file: for the
// fold (node combining), and every output for restarted reducers (node
// kills, reduce failures, and disk damage off HOP), which then find
// none left in memory. A one-node cluster keeping one output
// (SlotCache 1) has that cap; the node-kill rows need a survivor, so
// they run two nodes and the cap is narrowed to one token. Against the
// same plan at a cap of every output, only node combining writes more
// to the scratch file. Speculation has no second node to back up on,
// so its row runs the straggler alone; HOP takes transient disk errors
// and no other fault, nor combines. No plan wedges the job, and every
// answer is the reference's.
func TestSmallestResidencyCap(t *testing.T) {
	plans := []struct {
		name string
		set  func(job *engine.JobSpec)
	}{
		{"clean", func(*engine.JobSpec) {}},
		{"stragglers", func(job *engine.JobSpec) {
			job.Faults = engine.FaultPlan{SlowNodes: map[int]float64{0: 3}, Speculate: true}
		}},
		{"map-failures", func(job *engine.JobSpec) {
			job.Faults = engine.FaultPlan{MapFailures: map[int]int{0: 1, 3: 2}, FailPoint: 0.5}
		}},
		{"shuffle-errors", func(job *engine.JobSpec) { job.Faults = engine.FaultPlan{ShuffleErrorRate: 0.05} }},
		{"disk-damage", func(job *engine.JobSpec) {
			job.Faults = engine.FaultPlan{Disk: engine.DiskFaultPlan{IOErrorRate: 0.05}}
		}},
		{"node-kill", func(job *engine.JobSpec) {
			job.Cluster.Nodes = 2
			job.Faults = engine.FaultPlan{KillAtMapProgress: map[int]float64{1: 0.5}}
		}},
		{"reduce-failures", func(job *engine.JobSpec) {
			job.Faults = engine.FaultPlan{ReduceFailures: map[int]int{0: 1, 1: 2}, FailPoint: 0.5}
		}},
		{"node-combine", func(job *engine.JobSpec) { job.NodeCombine = engine.NodeCombineOn }},
	}
	var want []string
	for _, o := range reference.Run(queries.NewClickCount(), internalJob(engine.HOP).Input) {
		want = append(want, o.Key+"\t"+o.Value)
	}
	sort.Strings(want)
	for _, pl := range []engine.Platform{engine.SortMerge, engine.HOP, engine.MRHash, engine.INCHash, engine.DINCHash} {
		for _, plan := range plans {
			if pl == engine.HOP && plan.name != "clean" && plan.name != "disk-damage" {
				continue
			}
			t.Run(pl.String()+"/"+plan.name, func(t *testing.T) {
				job := internalJob(pl)
				job.Cluster.Nodes, job.Cluster.SlotCache = 1, 1
				plan.set(&job)
				job.Cluster.Parallelism = 4
				runAt := func(tokens int) *run {
					r, err := newRun(job, queries.NewClickCount)
					if err != nil {
						t.Fatal(err)
					}
					if cap(r.resident) != job.Cluster.Nodes {
						t.Fatalf("residency cap = %d, want %d", cap(r.resident), job.Cluster.Nodes)
					}
					r.resident = make(chan struct{}, tokens)
					rep, err := r.execute()
					if err != nil {
						t.Fatal(err)
					}
					if got := sortedRows(rep); !slices.Equal(got, want) {
						t.Errorf("%d output rows differ from the reference's %d", len(got), len(want))
					}
					return r
				}
				r, all := runAt(1), runAt(internalJob(pl).Input.NumChunks())
				if job.ReduceRestarts() {
					for i := range r.slots {
						for _, u := range r.slots[i].units {
							if u.ends == nil || u.parts.Segs != nil {
								t.Fatalf("chunk %d: an output is not parked, or still in memory", u.chunk)
							}
						}
					}
				}
				combine := job.NodeCombine == engine.NodeCombineOn
				if got, base := r.scratch.Size(), all.scratch.Size(); (got > base) != combine || got < base {
					t.Errorf("scratch file holds %d bytes at one token, %d at a token per output; want more: %v", got, base, combine)
				}
			})
		}
	}
}

// TestParkFailureFailsTheJob: a write to the scratch file that fails
// (here, the file is closed under the run) fails the attempt that
// parks, and the job returns the error: nothing panics past the
// attempt. Node combining at one token parks the deposits of every map
// worker but the one holding it.
func TestParkFailureFailsTheJob(t *testing.T) {
	defer func(open func() (*storage.Scratch, error)) { engine.OpenScratch = open }(engine.OpenScratch)
	engine.OpenScratch = func() (*storage.Scratch, error) {
		sc, err := storage.OpenScratch()
		if err == nil {
			sc.Close()
		}
		return sc, err
	}
	job := internalJob(engine.INCHash)
	job.Cluster.Nodes, job.Cluster.SlotCache, job.Cluster.Parallelism = 1, 1, 4
	job.NodeCombine = engine.NodeCombineOn
	_, err := Run(job, queries.NewClickCount)
	if err == nil || !strings.Contains(err.Error(), "map task") || !strings.Contains(err.Error(), "spill scratch") {
		t.Fatalf("err = %v, want a map task's failed scratch write", err)
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
