// Package realexec runs MapReduce jobs on the wall-clock substrate:
// real goroutines, real time, and an M3R-style in-memory shuffle.
//
// It is a driver over the task bodies it shares with the DES engine
// (engine.MapBody and engine.TaskReducer, internal/engine/task_*.go):
// this package decides which attempt runs where, what it consumes next
// and how failures chain; what an attempt computes and charges is the
// shared body's. The engine.Report it produces therefore has answer
// fields — output records and collected rows, map/reduce record counts,
// byte counters, virtual CPU ledgers — bit-for-bit identical to the
// engine's clean-run path and deterministic for any worker count.
// Wall-clock fields (RunningTime, MapFinishTime, WallTime, Spans) are
// measured, not simulated, and vary run to run.
//
// Determinism comes from structure, not luck:
//
//   - each task runs serially on its own WallProc (Offload is inline)
//     with its own store and CPU ledger, so nothing a task computes
//     depends on scheduling;
//   - a barrier separates map and reduce phases, and every reducer
//     consumes the cached map-output partitions in fixed (chunk, spill)
//     order — the shuffle is entirely in memory, the M3R model, so
//     MemShuffleFetches counts every fetch and DiskShuffleFetches is 0;
//   - cross-task counters are integers summed in task order at the end.
//
// Every task runs as an attempt chain (see fault.go): one map chain
// and one reduce attempt loop, whatever the plan — a fault-free task is
// the chain that succeeds at attempt 0. Fault plans and checkpointing
// ride those loops: node kills anchored to map-progress points,
// stragglers, per-attempt map/reduce failures, transient shuffle-read
// errors, speculative map backups, checkpointed INC/DINC reducer state
// and disk damage all execute with the seeded, structural triggers the
// DES runs too, so answers stay bit-identical to the fault-free run.
// Disk damage (FaultPlan.Disk) is injected into the stores of the map
// attempts that run before the barrier; every later store runs clean.
package realexec

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/engine"
	"repro/internal/mr"
	"repro/internal/storage"
	"repro/internal/substrate"
)

// Spec is a job submission for the real backend.
type Spec struct {
	// Job is the same spec the DES engine takes. Job.Query may be left
	// nil: it is filled from NewQuery for validation and naming.
	Job engine.JobSpec

	// NewQuery returns a fresh query instance. Queries keep per-run
	// scratch state (watermarks, reusable buffers), so concurrent tasks
	// must never share one instance: every map and reduce task calls
	// the factory once. All instances must be behaviorally identical.
	NewQuery func() mr.Query

	// Workers is the number of concurrent task goroutines (< 1 means 1).
	// Answers and all deterministic Report fields are identical for any
	// value; only wall-clock time changes.
	Workers int
}

// unit is one published piece of map output, cached in memory — the
// M3R-style shuffle. Reducers read their partition's segments directly;
// no fetch ever touches a disk. Non-HOP map tasks publish one unit
// each (seq 0); HOP publishes one per eager spill push.
//
// When a node kill loses a unit's output, the unit turns into a
// placeholder: parts is cleared and ready is installed before the
// reduce phase starts, and the re-execution attempt republishes into
// it and closes ready. ready == nil means the unit was never lost, so
// the fault-free fetch path stays branch-free.
type unit struct {
	chunk, seq int
	parts      core.MapParts
	partBytes  []int64

	ready chan struct{} // non-nil only for lost units awaiting re-execution
	err   error         // re-execution failure, set before ready closes
}

// run is the shared state of one real-backend job.
type run struct {
	*engine.JobFrame // task counts, hash family, chunk assignment
	spec             *engine.JobSpec
	newQ             func() mr.Query
	model            cost.Model
	start            time.Time

	units    []*unit
	globalWM int64
	hasWM    bool
	// pastBarrier is set once every map chain has returned: stores opened
	// after it (re-executions, combine folds, reducers) inject no disk
	// damage.
	pastBarrier bool

	// comb is the in-node combine plan (engine/task_combine.go), folded
	// at the map barrier; no chunk deposits into it unless the spec
	// resolves node combining on. See nodecombine.go.
	comb *engine.CombinePlan

	memFetches      atomic.Int64
	snapshotRecords atomic.Int64

	// flt interprets the fault plan; an empty plan kills nobody, rolls no
	// errors and sleeps for nothing, so the counters below stay zero.
	flt              *faults
	nodesLost        int // set at the map barrier, before the reduce phase
	reexecMaps       int
	restartedReduces atomic.Int64
	specBackups      atomic.Int64
	specWins         atomic.Int64
	fetchRetries     atomic.Int64
	wastedCPU        atomic.Int64 // virtual ns burnt by failed/superseded attempts
	refetchBytes     atomic.Int64 // shuffle bytes fetched again by restarted reducers
	checkpoints      atomic.Int64
}

// Run executes the job on real goroutines and returns its report.
func Run(s Spec) (*engine.Report, error) {
	if s.NewQuery == nil {
		return nil, fmt.Errorf("realexec: NewQuery factory is required")
	}
	spec := s.Job
	spec.Query = s.NewQuery()
	frame, err := engine.NewJobFrame(&spec)
	if err != nil {
		return nil, err
	}
	workers := s.Workers
	if workers < 1 {
		workers = 1
	}
	cfg := &spec.Cluster
	r := &run{JobFrame: frame, spec: &spec, newQ: s.NewQuery, model: cfg.Model, start: time.Now()}
	r.flt = newFaults(&spec, r.KillAfter)
	r.comb = r.NewCombinePlan(r.flt.combinable)

	// Map phase: fan the chunks over the worker pool; each task owns
	// its store, proc, query, and ledger, and runs as an attempt chain
	// (injected failures, displaced tasks, speculative backups) — of
	// length one on a fault-free plan.
	mapChains := make([]*mapChain, r.TotalMaps)
	forEach(workers, r.TotalMaps, func(chunk int) {
		mapChains[chunk] = r.runMapChain(chunk, r.Node(chunk))
	})
	mapRes := make([]*mapResult, r.TotalMaps)
	var mapExtra []*mapResult
	for chunk, ch := range mapChains {
		if ch.err != nil {
			return nil, ch.err
		}
		mapRes[chunk] = ch.winner
		mapExtra = append(mapExtra, ch.extras...)
	}
	mapFinish := time.Since(r.start)
	r.pastBarrier = true

	// Barrier: collect the cached shuffle units in (chunk, spill) order
	// and resolve the global watermark — the same horizon the reference
	// oracle uses, since every record has been observed by now.
	for _, mres := range mapRes {
		r.units = append(r.units, mres.units...)
		if mres.hasTS && (!r.hasWM || mres.maxTS > r.globalWM) {
			r.globalWM, r.hasWM = mres.maxTS, true
		}
	}
	// In-node combine: fold the deposited map outputs into one published
	// run per aggregation group before the shuffle order is fixed.
	combRes := make([]*rcResult, len(r.comb.Groups))
	forEach(workers, len(combRes), func(gi int) {
		combRes[gi] = r.foldGroup(r.comb.Groups[gi])
	})
	for _, cr := range combRes {
		if cr.err != nil {
			return nil, cr.err
		}
		r.units = append(r.units, cr.unit)
	}
	sort.Slice(r.units, func(i, j int) bool {
		if r.units[i].chunk != r.units[j].chunk {
			return r.units[i].chunk < r.units[j].chunk
		}
		return r.units[i].seq < r.units[j].seq
	})

	// Node kills: outputs published on a node that died mid-map-phase
	// are lost at the barrier. Their units become placeholders and the
	// tasks re-execute on survivors concurrently with the reduce phase;
	// reducers that reach a lost unit first wait with backoff — the
	// lazy re-fetch protocol, off the critical path when recovery wins
	// the race.
	var reexecWG sync.WaitGroup
	var reexecRes []*mapResult
	if len(r.flt.killAt) > 0 {
		r.nodesLost = len(r.flt.killAt)
		var lost []*unit
		for _, u := range r.units {
			if r.flt.lostAfterMap(u.chunk, mapRes[u.chunk].node) {
				lost = append(lost, u)
			}
		}
		r.reexecMaps = len(lost)
		reexecRes = make([]*mapResult, len(lost))
		for i, u := range lost {
			i, u := i, u
			node := r.flt.survivor(mapRes[u.chunk].node)
			attempt := 1 + r.spec.Faults.MapFailures[u.chunk]
			u.parts, u.partBytes = core.MapParts{}, nil
			u.ready = make(chan struct{})
			reexecWG.Add(1)
			go func() {
				defer reexecWG.Done()
				res := r.runMapAttempt(u.chunk, node, attempt, false, nil)
				reexecRes[i] = res
				if res.err != nil {
					u.err = res.err
				} else {
					nu := res.units[0]
					u.parts, u.partBytes = nu.parts, nu.partBytes
				}
				close(u.ready)
			}()
		}
	}

	// Reduce phase: one restart ladder per task.
	redChains := make([]*reduceChain, r.NumReducers)
	forEach(workers, r.NumReducers, func(ridx int) {
		redChains[ridx] = r.runReduceChain(ridx, ridx%cfg.Nodes)
	})
	reexecWG.Wait()
	for _, res := range reexecRes {
		if res != nil && res.err != nil {
			return nil, res.err
		}
	}
	redRes := make([]*reduceResult, r.NumReducers)
	var redExtra []*reduceResult
	for ridx, ch := range redChains {
		if ch.err != nil {
			return nil, ch.err
		}
		redRes[ridx] = ch.winner
		redExtra = append(redExtra, ch.extras...)
	}

	// Re-executed map attempts are completed work and count like the
	// originals — the same double-counting the DES exhibits when lost
	// outputs recompute.
	mapDone := mapRes
	if len(reexecRes) > 0 {
		mapDone = append(append(make([]*mapResult, 0, len(mapRes)+len(reexecRes)), mapRes...), reexecRes...)
	}
	return r.report(mapDone, mapExtra, redRes, redExtra, combRes, mapFinish, workers), nil
}

// forEach runs fn(0) … fn(n-1) on up to workers goroutines.
func forEach(workers, n int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// newStore builds a per-task wall store configured like the engine's
// node store.
func (r *run) newStore(node int) *storage.Store {
	st := storage.NewWallStore(node, r.model)
	st.Checksums = r.spec.Cluster.Checksums
	if r.spec.Cluster.SSDIntermediate {
		st.Intermediate = cost.SSD
	}
	return st
}

// newRuntime builds the task runtime charging virtual CPU into ledger.
func (r *run) newRuntime(p substrate.Proc, st *storage.Store, ledger *int64) *core.Runtime {
	return &core.Runtime{
		P:     p,
		Store: st,
		Model: r.model,
		Fam:   r.Fam,
		ChargeCPU: func(d time.Duration) {
			if d > 0 {
				*ledger += int64(d)
			}
		},
		// Only the DES plots reduce progress (Definition 1).
		FnRecords: func(int64) {},
	}
}

// mapResult is one map attempt's outcome.
type mapResult struct {
	store  *storage.Store
	node   int
	units  []*unit
	ledger int64

	mapped, emitted, quarantined int64
	maxTS                        int64
	hasTS                        bool
	failed                       bool // injected failure: output discarded, task retries
	superseded                   bool // lost the claim race to a speculative twin
	span                         engine.Span
	err                          error
}

// runMapAttempt executes one map task attempt: a fresh query instance
// and an engine.MapBody over the chunk, each read segment mapped and
// replayed inline, the map output written for U3 accounting parity and
// cached as a shuffle unit. Attempt chains (fault.go) drive it; a
// fault-free task is attempt 0 with no injection. When inject is set
// the attempt dies at the spec's FailPoint through the chunk; when
// claim is non-nil the attempt races a speculative twin and only the
// first to claim publishes. Before the barrier the attempt's store
// injects the plan's disk damage, and a checksum failure or exhausted
// I/O retry budget fails the attempt as engine/maptask.go does.
func (r *run) runMapAttempt(chunk, node, attempt int, inject bool, claim *atomic.Bool) (res *mapResult) {
	res = &mapResult{node: node}
	p := substrate.NewWallProc(r.start)
	taskStart := p.Now()
	span := func(kind string) engine.Span {
		return engine.Span{Name: fmt.Sprintf("map%06d#%d", chunk, attempt), Kind: kind, Node: node,
			Start: time.Duration(taskStart), End: time.Duration(p.Now())}
	}
	defer func() {
		if rec := recover(); rec != nil {
			if _, ok := rec.(*storage.Corruption); ok {
				res.failed, res.span = true, span("map-corrupt")
				return
			}
			res.err = fmt.Errorf("realexec: map task %d attempt %d: %v", chunk, attempt, rec)
		}
	}()
	st := r.newStore(node)
	if !r.pastBarrier {
		st.SetFaults(r.spec.StoreFaults(int64(chunk), int64(attempt)))
	}
	res.store = st
	rt := r.newRuntime(p, st, &res.ledger)
	q := r.newQ()
	hop := r.spec.Platform == engine.HOP
	body := engine.NewMapBody(r.spec, rt, q, chunk, attempt,
		func(name string, seq int, parts core.MapParts) {
			// HOP: each eager spill is its own shuffle unit.
			res.units = append(res.units, r.publish(p, st, name, chunk, seq, parts))
		})
	// The barrier resolves the global watermark from every task's
	// maximum event time.
	observe := func(ts int64) {
		if !res.hasTS || ts > res.maxTS {
			res.maxTS, res.hasTS = ts, true
		}
	}

	data := r.spec.Input.ChunkBytes(chunk)
	segs := body.Segments(data)
	defer body.Release()
	failAt := int64(-1)
	if inject {
		failAt = r.spec.Faults.MapFailAt(len(data))
	}
	var end int64
	for _, seg := range segs {
		st.ChargeInputRead(p, int64(len(seg)))
		var out engine.SegMapResult
		body.MapSegment(seg, &out)
		body.Replay(&out, observe)
		end += int64(len(seg))
		if failAt >= 0 && end >= failAt {
			// Injected attempt death at the same byte offset the DES
			// uses: all work done so far is discarded and wasted.
			res.failed, res.span = true, span("map-failed")
			return res
		}
	}

	parts, mapped, emitted := body.Finish()
	res.mapped, res.emitted, res.quarantined = mapped, emitted, body.Quarantined
	r.flt.slowSleep(node)
	if claim != nil && !claim.CompareAndSwap(false, true) {
		// The speculative twin claimed first: suppress the duplicate —
		// nothing is published, the completed compute is wasted.
		res.superseded, res.span = true, span("map-superseded")
		return res
	}
	if !hop {
		if r.comb.Deposits(chunk) {
			// Node-combine: the output parks for the barrier fold instead
			// of publishing; no U3 write happens here — the merged run is
			// the only MapOutput-class write, exactly as on the engine.
			r.comb.Deposit(chunk, parts.Segs)
		} else {
			res.units = append(res.units,
				r.publish(p, st, fmt.Sprintf("map%06d.a%d.out", chunk, attempt), chunk, 0, parts))
		}
	}
	res.span = span("map")
	return res
}

// publish writes the per-partition segments to the task's store (U3,
// kept for accounting parity with the DES even though the shuffle
// never reads it back) and returns the in-memory shuffle unit.
func (r *run) publish(p substrate.Proc, st *storage.Store, name string, chunk, seq int, parts core.MapParts) *unit {
	_, partBytes, _ := engine.WriteMapOutput(p, st, name, parts)
	return &unit{chunk: chunk, seq: seq, parts: parts, partBytes: partBytes}
}

// reduceResult is one reduce attempt's outcome.
type reduceResult struct {
	store  *storage.Store
	ledger int64

	out        engine.OutTotals
	approxKeys int64
	failed     bool // injected failure: provisional output discarded, task restarts
	span       engine.Span
	err        error
}

// afterFeed runs what follows every consumed unit: due HOP snapshots (the barrier pins map progress at 1) and
// sort-merge's multi-pass merge trigger.
func (r *run) afterFeed(red *engine.TaskReducer, sink func(physBytes int64)) {
	for red.SnapshotDue(1) {
		var records int64
		red.Snapshot(&engine.SnapshotWriter{Sink: sink, Records: &records})
		r.snapshotRecords.Add(records)
	}
	if red.MergeDue() {
		red.Merge()
	}
}

// report assembles the engine.Report: the shared tail
// (engine.JobFrame.ReportTail) over per-task integers summed in task
// order, identical for any worker count, then what only this backend
// knows; RunningTime, MapFinishTime, WallTime, and Spans are measured
// wall time.
//
// mapDone and redDone hold completed (counted) attempts — including
// re-executed maps, which count again exactly as on the DES; mapExtra
// and redExtra hold failed and superseded attempts, which contribute
// only their I/O accounting (their CPU already went to wastedCPU).
func (r *run) report(mapDone, mapExtra []*mapResult, redDone, redExtra []*reduceResult, combRes []*rcResult, mapFinish time.Duration, workers int) *engine.Report {
	rep := &engine.Report{MapFinishTime: mapFinish, Workers: workers}
	sums := engine.ReportSums{ShuffleByNode: make([]int64, r.spec.Cluster.Nodes), Combine: r.comb.Totals()}
	publishedBy := func(node int, u *unit) {
		for _, b := range u.partBytes {
			sums.ShuffleByNode[node] += b
		}
	}
	for _, mres := range mapDone {
		sums.AddStore(mres.store)
		sums.MapCPU += mres.ledger
		rep.MapInputRecords += mres.mapped
		rep.MapOutputRecords += mres.emitted
		rep.QuarantinedRecords += mres.quarantined
		rep.Spans = append(rep.Spans, mres.span)
		for _, u := range mres.units {
			publishedBy(mres.node, u)
		}
	}
	// Combine folds count in group order, like the engine's fold order.
	for _, cr := range combRes {
		sums.AddStore(cr.store)
		sums.MapCPU += cr.ledger
		rep.Spans = append(rep.Spans, cr.spans...)
		publishedBy(cr.node, cr.unit)
	}
	for _, mres := range mapExtra {
		sums.AddStore(mres.store)
		rep.Spans = append(rep.Spans, mres.span)
	}
	for _, rres := range redDone {
		sums.AddStore(rres.store)
		sums.ReduceCPU += rres.ledger
		rep.OutputRecords += rres.out.Records
		rep.ApproxKeys += rres.approxKeys
		rep.Outputs = append(rep.Outputs, rres.out.Rows...)
		rep.Spans = append(rep.Spans, rres.span)
	}
	for _, rres := range redExtra {
		sums.AddStore(rres.store)
		rep.Spans = append(rep.Spans, rres.span)
	}
	sums.WastedCPU = r.wastedCPU.Load()
	sums.RefetchBytes = r.refetchBytes.Load()
	r.ReportTail(rep, &sums)
	rep.MemShuffleFetches = r.memFetches.Load()
	rep.SnapshotRecords = r.snapshotRecords.Load()
	rep.NodesLost = r.nodesLost
	rep.ReExecutedMapTasks = r.reexecMaps
	rep.RestartedReduceTasks = int(r.restartedReduces.Load())
	rep.SpeculativeBackups = int(r.specBackups.Load())
	rep.SpeculativeWins = int(r.specWins.Load())
	rep.FetchRetries = r.fetchRetries.Load()
	rep.Checkpoints = r.checkpoints.Load()
	rep.RunningTime = time.Since(r.start)
	rep.WallTime = rep.RunningTime
	return rep
}
