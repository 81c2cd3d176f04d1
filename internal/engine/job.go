package engine

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/storage"
)

// job is one running MapReduce job: the simulation state, gauges, and
// counters, and the metrics.Probe the sampler reads.
type job struct {
	*JobFrame // the validated spec, task counts, hash family, chunk assignment
	k         *sim.Kernel

	nodes   []*node
	shuffle *shuffleService
	tracker *tracker // per-task attempt state, on every run; its detector daemon only under faults.needsTracker()
	gauges  metrics.Gauges

	// combine is the in-node combine plan (task_combine.go); no chunk
	// deposits into it unless the spec resolves node combining on, and
	// then only the chunks the fault plan keeps. See nodecombine.go.
	combine *CombinePlan

	mapsDone         int
	mapPrefix        int // chunks 0…mapPrefix-1 have each completed once (the kill trigger)
	fetchesDone      int64
	memFetches       int64
	diskFetches      int64
	fnRecords        int64
	out              OutTotals // committed reduce output; the progress sampler reads it mid-run
	mapInputRecords  int64
	mapOutputRecords int64
	mapFinish        int64
	approxKeys       int64
	snapshotRecords  int64

	// sums is what ReportTail reads: the CPU ledgers across all tasks,
	// re-fetched and per-node published shuffle bytes.
	sums ReportSums

	// Recovery accounting (fault-injected runs).
	nodesLost        int
	reexecMaps       int
	restartedReduces int
	specBackups      int
	specWins         int
	fetchRetries     int64
	checkpoints      int64

	// Data-plane integrity accounting (disk-fault runs).
	quarantined  int64 // bad records skipped under SkipBadRecords
	tornRepaired int64 // torn checkpoint images detected and fallen back from
	ckptCorrupt  int64 // bit-flipped checkpoint images detected at restore
	ckptSeq      int64 // per-job checkpoint injection sequence

	spans []Span
}

// Span is one task's lifetime on the cluster (the §5 "profiler"
// utilities): exported in the report and convertible to a Chrome
// trace via cmd/onepass -trace.
type Span struct {
	Name  string        // task name, e.g. "map001234" or "reduce007"
	Kind  string        // "map" | "reduce"
	Node  int           // node index
	Start time.Duration // virtual time
	End   time.Duration
}

// addSpan records a completed task span.
func (j *job) addSpan(name, kind string, node int, start, end int64) {
	j.spans = append(j.spans, Span{
		Name: name, Kind: kind, Node: node,
		Start: time.Duration(start), End: time.Duration(end),
	})
}

// OpenScratch opens a run's scratch file, on either driver; a test may
// hand over a broken one, or keep hold of the one a run uses.
var OpenScratch = storage.OpenScratch

// Run executes the job to completion on the discrete-event simulation
// and returns the report. For the same job on real goroutines under
// wall-clock time, see internal/realexec (onepass.RunReal).
func Run(spec JobSpec) (*Report, error) {
	frame, err := NewJobFrame(&spec)
	if err != nil {
		return nil, err
	}
	scratch, err := OpenScratch()
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	defer scratch.Close()
	cfg := &spec.Cluster
	j := &job{JobFrame: frame, k: sim.NewKernel()}
	j.k.SetWorkers(cfg.Parallelism)
	for i := 0; i < cfg.Nodes; i++ {
		j.nodes = append(j.nodes, newNode(j.k, i, *cfg, scratch))
	}
	j.shuffle = newShuffleService(j.k, j.TotalMaps, j.NumReducers)

	// Fault plan wiring: stragglers, disk faults, the failure-detector
	// daemon (kills fire once a chunk prefix completes, countMapDone).
	// Every task runs its attempt chain on the tracker's state tables; a
	// clean run spawns no daemon, so no heartbeat tick interleaves with
	// its events.
	faults := &spec.Faults
	for idx, at := range faults.crashAt {
		j.nodes[idx].deadAt = int64(at)
	}
	for idx, factor := range faults.SlowNodes {
		j.nodes[idx].slow = factor
		j.nodes[idx].store.SlowFactor = factor
	}
	for _, n := range j.nodes {
		n.store.SetFaults(spec.StoreFaults()) // cleared at the map barrier (countMapDone)
	}
	j.tracker = newTracker(j)
	j.shuffle.retain = spec.ReduceRestarts()
	if faults.needsTracker() {
		j.k.SpawnDaemon("tracker", func(p *sim.Proc) { j.tracker.run(p) })
	}

	sampler := metrics.NewSampler(j, cfg.ProgressInterval)
	sampler.Start(j.k)

	j.sums.ShuffleByNode = make([]int64, cfg.Nodes)
	j.combine = j.NewCombinePlan()
	// Map tasks: one process per chunk on its home node, started when a
	// slot there grants it.
	for chunk := range j.TotalMaps {
		n := j.nodes[j.Home(chunk)]
		j.k.SpawnAcquire(fmt.Sprintf("map%06d", chunk), n.mapSlots, 1, func(p *sim.Proc) {
			j.runMapTask(p, chunk, n, false, true)
		})
	}
	// Reduce tasks: reducer i handles partition i on node i%N; slots
	// make the waves when R exceeds ReduceSlots.
	reducersLeft := j.NumReducers
	for ridx := range j.NumReducers {
		n := j.nodes[ridx%cfg.Nodes]
		j.k.Spawn(fmt.Sprintf("reduce%03d", ridx), func(p *sim.Proc) {
			j.runReduceTask(p, ridx, n)
			reducersLeft--
			if reducersLeft == 0 {
				for _, nd := range j.nodes {
					nd.closeOutput()
				}
			}
		})
	}

	wallStart := time.Now()
	if err := j.k.Run(); err != nil {
		return nil, fmt.Errorf("engine: %s on %s: %w", spec.Query.Name(), spec.Platform, err)
	}
	wall := time.Since(wallStart)
	sampler.Finish(j.k.Now())
	r := j.report(sampler)
	r.Workers = j.k.Workers()
	r.WallTime = wall
	return r, nil
}

// newRuntime builds the task runtime charging CPU on node n into the
// given ledger.
func (j *job) newRuntime(p *sim.Proc, n *node, ledger *int64) *core.Runtime {
	return &core.Runtime{
		P:     p,
		Store: n.store,
		Model: j.spec.Cluster.Model,
		Fam:   j.Fam,
		ChargeCPU: func(d time.Duration) {
			n.chargeCPU(p, d, ledger)
		},
		FnRecords: func(k int64) { j.fnRecords += k },
	}
}

// Probe implementation (metrics sampling).

// CPUBusyIntegral implements metrics.Probe.
func (j *job) CPUBusyIntegral() int64 {
	var t int64
	for _, n := range j.nodes {
		t += n.cpu.BusyIntegral()
	}
	return t
}

// CPUCapacity implements metrics.Probe.
func (j *job) CPUCapacity() int64 {
	return int64(j.spec.Cluster.Cores * j.spec.Cluster.Nodes)
}

// DiskBusyIntegral implements metrics.Probe.
func (j *job) DiskBusyIntegral() int64 {
	var t int64
	for _, n := range j.nodes {
		t += n.store.Arm(0).BusyIntegral() + n.store.Arm(1).BusyIntegral()
	}
	return t
}

// DiskCount implements metrics.Probe: one active arm per node, two
// when the SSD carries intermediates.
func (j *job) DiskCount() int64 {
	arms := int64(1)
	if j.spec.Cluster.SSDIntermediate {
		arms = 2
	}
	return arms * int64(j.spec.Cluster.Nodes)
}

// DiskReadBytes implements metrics.Probe.
func (j *job) DiskReadBytes() int64 {
	var t int64
	for _, n := range j.nodes {
		c := n.store.Counters()
		for i := 0; i < int(storage.NumIOClasses); i++ {
			t += c.ReadBytes[i]
		}
	}
	return t
}

// TaskGauge implements metrics.Probe.
func (j *job) TaskGauge(ph metrics.Phase) int { return j.gauges.Get(ph) }

// Counts implements metrics.Probe.
func (j *job) Counts() (int, int64, int64, int64) {
	return j.mapsDone, j.fetchesDone, j.fnRecords, j.out.Records
}
