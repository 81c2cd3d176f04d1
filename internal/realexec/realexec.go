// Package realexec runs MapReduce jobs on the wall-clock substrate:
// real goroutines, real time, and an M3R-style in-memory shuffle.
//
// It is a driver over the task bodies it shares with the DES engine
// (engine.MapBody, engine.ReduceTask and engine.TaskReducer,
// internal/engine/task_*.go): this package decides where an attempt
// runs and how its waiting and fetching pass; what an attempt computes
// and charges, and which reduce attempts an injected failure hits, what
// they resume from and when they fail, are the shared code's. The
// engine.Report it produces therefore equals the DES run's of the same
// spec in every field its tags (engine/report.go) do not let the
// consumption order, the shuffle medium, the clock or a fault cause
// move, and is identical for any worker count but the fields tagged
// clock, host or races. Wall-clock fields (RunningTime, MapFinishTime,
// WallTime, Spans) are measured, not simulated, and vary run to run.
//
// Determinism comes from structure, not luck:
//
//   - each task runs serially on its own WallProc (Offload is inline)
//     with its own store and CPU ledger, so nothing a task computes
//     depends on scheduling;
//   - every reducer starts with the job and consumes the map outputs in
//     canonical (chunk, spill) order, each once it is published — the
//     shuffle is entirely in memory, the M3R model, so MemShuffleFetches
//     counts every fetch and DiskShuffleFetches is 0 — and with no disk
//     to serve older outputs from, maps wait while SlotCache × Nodes
//     are resident (claim), which moves no consumption;
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
// Where a task runs, what a kill loses, what races a backup and what
// combines is not decided here: both drivers ask engine.JobFrame
// (engine/task_faults.go), so they lose, redo, back up and combine the
// same tasks. Disk damage (FaultPlan.Disk) is injected into the stores
// of primary map attempts; re-executions, folds and reducers run clean.
package realexec

import (
	"fmt"
	"math"
	"runtime"
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

// unit is one published piece of map output, cached in memory — the
// M3R-style shuffle. Reducers read their partition's segments directly;
// no fetch ever touches a disk. Non-HOP map tasks publish one unit
// each (seq 0); HOP publishes one per eager spill push.
//
// When a node kill loses a unit's output, it turns into a placeholder:
// parts is cleared and ready installed before its slot is published,
// and the re-execution republishes into it and closes ready. ready ==
// nil means the unit was never lost (the fault-free path).
type unit struct {
	chunk, seq int
	tasks      []int // the map tasks a node-combined run covers (nil: chunk alone); chunk is the first
	parts      core.MapParts
	partBytes  []int64
	taken      atomic.Int32 // reducers that consumed it; the last drops parts (run.release)

	ready chan struct{} // non-nil only for lost units awaiting re-execution
	err   error         // re-execution failure, set before ready closes
}

// slot is one chunk's place in the canonical shuffle order, final once
// ready closes: the chunk's units (HOP: one per eager spill), its combine
// group's run at the group's smallest chunk, or none for a deposit.
type slot struct {
	ready chan struct{}
	units []*unit
	maxTS int64 // max event time of the input behind units (math.MinInt64: none)
}

// run is the shared state of one real-backend job.
type run struct {
	*engine.JobFrame // task counts, hash family, chunk assignment
	spec             *engine.JobSpec
	newQ             func() mr.Query
	start            time.Time
	workers          int
	scratch          *storage.Scratch // every task store's spill files (execute)

	slots     []slot
	release   bool          // no reduce attempt can restart: the last consumer drops a unit's parts
	tokens    chan struct{} // reduce slots
	resident  chan struct{} // a token per claimed chunk not yet dropped (claim; nil: no cap)
	halted    chan struct{} // closed by halt once a reduce task fails: maps stop waiting
	halt      func()
	consuming sync.WaitGroup // reduce tasks that may still need map output

	maps []*mapChain
	// comb is the in-node combine plan (engine/task_combine.go); no chunk
	// deposits unless the spec resolves node combining on. See
	// nodecombine.go.
	comb     *engine.CombinePlan
	combLeft []atomic.Int32 // per group: deposits outstanding
	combRes  []*rcResult

	memFetches      atomic.Int64
	snapshotRecords atomic.Int64

	sumsMu sync.Mutex
	sums   engine.ReportSums // every finished attempt's store counters (addStore)

	// Recovery counters: an empty fault plan kills nobody, rolls no
	// errors and sleeps for nothing, so they stay zero.
	restartedReduces atomic.Int64
	specBackups      atomic.Int64
	specWins         atomic.Int64
	fetchRetries     atomic.Int64
	wastedCPU        atomic.Int64 // virtual ns burnt by failed/superseded attempts
	refetchBytes     atomic.Int64 // shuffle bytes fetched again by restarted reducers
	checkpoints      atomic.Int64
}

// Run executes the job on real goroutines and returns its report: the
// same spec the DES engine takes, run on Job.Cluster.Parallelism map
// goroutines and as many reduce slots (a reducer waiting for map output
// holds none; 0 = GOMAXPROCS). Answers and deterministic Report fields
// are identical for any count; only wall time changes. Job.Query is
// filled from newQuery, which returns a fresh instance: queries keep
// per-run scratch state (watermarks, reusable buffers), so every map and
// reduce task calls it once and concurrent tasks never share one. All
// instances must behave identically.
func Run(job engine.JobSpec, newQuery func() mr.Query) (*engine.Report, error) {
	r, err := newRun(job, newQuery)
	if err != nil {
		return nil, err
	}
	return r.execute()
}

func newRun(spec engine.JobSpec, newQuery func() mr.Query) (*run, error) {
	if newQuery == nil {
		return nil, fmt.Errorf("realexec: a query factory is required")
	}
	spec.Query = newQuery()
	frame, err := engine.NewJobFrame(&spec)
	if err != nil {
		return nil, err
	}
	workers := spec.Cluster.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	r := &run{JobFrame: frame, spec: &spec, newQ: newQuery, start: time.Now(),
		workers: workers, release: !spec.ReduceRestarts()}
	r.comb = r.NewCombinePlan()
	r.combLeft = make([]atomic.Int32, len(r.comb.Groups))
	r.combRes = make([]*rcResult, len(r.comb.Groups))
	for gi, g := range r.comb.Groups {
		r.combLeft[gi].Store(int32(len(g.Tasks)))
	}
	r.slots = make([]slot, r.TotalMaps)
	for c := range r.slots {
		r.slots[c].ready = make(chan struct{})
	}
	r.maps = make([]*mapChain, r.TotalMaps)
	r.tokens, r.halted = make(chan struct{}, r.workers), make(chan struct{})
	r.halt = sync.OnceFunc(func() { close(r.halted) })
	r.consuming.Add(r.NumReducers)
	if n := residencyCap(r.spec, r.comb); n < r.TotalMaps {
		r.resident = make(chan struct{}, n)
	}
	return r, nil
}

// residencyCap is how many map outputs a run holds at once: SlotCache ×
// Nodes where the last consumer drops an output and no chunk deposits,
// else every output stays, for restarts or for its group's fold.
func residencyCap(spec *engine.JobSpec, comb *engine.CombinePlan) int {
	if spec.ReduceRestarts() || len(comb.Groups) > 0 {
		return spec.Input.NumChunks()
	}
	return spec.Cluster.SlotCache * spec.Cluster.Nodes
}

// execute runs map tasks as attempt chains on the worker pool, each
// publishing its slot as it returns, and every reduce task beside them
// from the start, consuming the slots in canonical order as they close.
// The spill files of all of them share one scratch file in
// os.TempDir(), closed when the run returns.
func (r *run) execute() (*engine.Report, error) {
	scratch, err := storage.OpenScratch()
	if err != nil {
		return nil, fmt.Errorf("realexec: %w", err)
	}
	defer scratch.Close()
	r.scratch = scratch
	redChains := make([]*reduceChain, r.NumReducers)
	reducesDone := make(chan struct{})
	go func() {
		defer close(reducesDone)
		each(r.NumReducers, func(ridx int) {
			r.tokens <- struct{}{}
			redChains[ridx] = r.runReduceChain(ridx, ridx%r.spec.Cluster.Nodes)
			<-r.tokens
			if redChains[ridx].err != nil {
				r.halt()
			}
		})
	}()
	var next atomic.Int64
	each(min(r.workers, r.TotalMaps), func(int) {
		for chunk := r.claim(&next); chunk >= 0; chunk = r.claim(&next) {
			r.maps[chunk] = r.runMapChain(chunk)
			r.fill(chunk, r.maps[chunk])
		}
	})
	mapFinish := time.Since(r.start)
	<-reducesDone

	// Re-executed map attempts are completed work and count like the
	// originals — the same double-counting the DES exhibits when lost
	// outputs recompute.
	var mapDone, mapExtra []*mapResult
	for _, ch := range r.maps {
		if ch.err != nil {
			return nil, ch.err
		}
		mapDone = append(mapDone, ch.winner)
		if ch.reexec != nil {
			mapDone = append(mapDone, ch.reexec)
		}
		mapExtra = append(mapExtra, ch.extras...)
	}
	var redRes, redExtra []*reduceResult
	for _, ch := range redChains {
		if ch.err != nil {
			return nil, ch.err
		}
		redRes = append(redRes, ch.winner)
		redExtra = append(redExtra, ch.extras...)
	}
	return r.report(mapDone, mapExtra, redRes, redExtra, mapFinish), nil
}

// claim hands a map worker the next chunk, -1 once none is left. Under
// the residency cap it takes a token before the chunk, so claims follow
// chunk order and each claimed chunk holds a token: the slowest reducer
// waits on a claimed chunk, which publishes without waiting on any
// reducer, or on one whose predecessors were all dropped, which leaves
// a token free.
func (r *run) claim(next *atomic.Int64) int {
	if r.resident != nil {
		select {
		case r.resident <- struct{}{}:
		case <-r.halted:
		}
	}
	if chunk := int(next.Add(1)) - 1; chunk < r.TotalMaps {
		return chunk
	}
	r.give()
	return -1
}

// give returns a chunk's residency token. Until a reduce task fails
// every claimed chunk holds one, so it never has to wait.
func (r *run) give() {
	select {
	case <-r.resident:
	default:
	}
}

// fill publishes chunk's slot once its map chain has returned (empty if
// it failed or deposited; the last depositor folds the group). An output
// lost to a node kill is published as a placeholder and re-executed on a
// survivor right here; reducers reach it by waitUnit.
func (r *run) fill(chunk int, ch *mapChain) {
	s, w := &r.slots[chunk], ch.winner
	if ch.err == nil {
		s.units, s.maxTS = w.units, w.maxTS
	}
	if len(s.units) == 0 {
		r.give() // no reducer drops anything here
	}
	if r.comb.Deposits(chunk) {
		g, _ := r.comb.GroupOf(r.Node(chunk))
		if r.combLeft[g.Idx].Add(-1) == 0 {
			r.foldGroup(g)
		}
		if chunk != g.Tasks[0] {
			close(s.ready)
		}
		return
	}
	if ch.err != nil || !r.Lost(chunk) {
		close(s.ready)
		return
	}
	u := s.units[0]
	u.parts, u.partBytes, u.ready = core.MapParts{}, nil, make(chan struct{})
	close(s.ready)
	ch.reexec = r.runMapAttempt(chunk, r.Place(chunk, -1), 1+r.spec.Faults.MapFailures[chunk], false, false, nil)
	if u.err = ch.reexec.err; u.err != nil {
		ch.err = u.err
	} else {
		u.parts, u.partBytes = ch.reexec.units[0].parts, ch.reexec.units[0].partBytes
	}
	close(u.ready)
}

// await blocks until ready closes, holding no reduce slot meanwhile.
func (r *run) await(ready chan struct{}) {
	select {
	case <-ready:
		return
	default:
	}
	<-r.tokens
	<-ready
	r.tokens <- struct{}{}
}

// each runs fn(0) … fn(n-1) on a goroutine apiece and waits for them.
func each(n int, fn func(i int)) {
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(i)
		}()
	}
	wg.Wait()
}

// newStore builds a per-task wall store configured like the engine's
// node store.
func (r *run) newStore(node int) *storage.Store {
	st := storage.NewWallStore(node, r.spec.Cluster.Model, r.scratch)
	st.Checksums = r.spec.Cluster.Checksums
	if r.spec.Cluster.SSDIntermediate {
		st.Intermediate = cost.SSD
	}
	return st
}

// addStore folds a finished attempt's store counters into the run's
// sums, so the run keeps integers, not the store. The sums are additive,
// so the order attempts finish in does not reach the Report.
func (r *run) addStore(st *storage.Store) {
	r.sumsMu.Lock()
	r.sums.AddStore(st)
	r.sumsMu.Unlock()
}

// newRuntime builds the task runtime charging virtual CPU into ledger.
func (r *run) newRuntime(p substrate.Proc, st *storage.Store, ledger *int64) *core.Runtime {
	return &core.Runtime{
		P:         p,
		Store:     st,
		Model:     r.spec.Cluster.Model,
		Fam:       r.Fam,
		ChargeCPU: func(d time.Duration) { *ledger += int64(max(d, 0)) },
		// Only the DES plots reduce progress (Definition 1).
		FnRecords: func(int64) {},
	}
}

// mapResult is one map attempt's outcome.
type mapResult struct {
	node   int
	units  []*unit
	ledger int64

	mapped, emitted, quarantined int64
	maxTS                        int64 // math.MinInt64: no record seen
	failed                       bool  // injected failure: output discarded, task retries
	superseded                   bool  // lost the claim race to a speculative twin
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
// first to claim publishes. When damage is set (primary chains, not
// re-executions) the attempt's store injects the plan's disk damage, and
// a checksum failure or exhausted I/O retry budget fails the attempt as
// engine/maptask.go does.
func (r *run) runMapAttempt(chunk, node, attempt int, inject, damage bool, claim *atomic.Bool) (res *mapResult) {
	res = &mapResult{node: node, maxTS: math.MinInt64}
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
	defer r.addStore(st)
	if damage {
		st.SetFaults(r.spec.StoreFaults(int64(chunk), int64(attempt)))
	}
	rt := r.newRuntime(p, st, &res.ledger)
	q := r.newQ()
	body := engine.NewMapBody(r.spec, rt, q, chunk, attempt,
		func(name string, seq int, parts core.MapParts) {
			// HOP: each eager spill is its own shuffle unit.
			res.units = append(res.units, r.publish(p, st, name, chunk, seq, parts))
		})

	data := r.spec.Input.ChunkBytes(chunk)
	segs := body.Segments(data)
	defer body.Release()
	failAt := int64(-1)
	if inject {
		failAt = r.spec.Faults.MapFailAt(len(data))
	}
	var end int64
	for _, seg := range segs {
		st.Charge(p, storage.MapInput, int64(len(seg)), false)
		var out engine.SegMapResult
		body.MapSegment(seg, &out)
		body.Replay(&out, func(ts int64) { res.maxTS = max(res.maxTS, ts) })
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
	r.slowSleep(node)
	if claim != nil && !claim.CompareAndSwap(false, true) {
		// The speculative twin claimed first: suppress the duplicate —
		// nothing is published, the completed compute is wasted.
		res.superseded, res.span = true, span("map-superseded")
		return res
	}
	if r.spec.Platform != engine.HOP {
		if r.comb.Deposits(chunk) {
			// Node-combine: the output parks for the group's fold instead
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

// publish charges the per-partition segments to the task's store (U3,
// for accounting parity with the DES; the counters outlive the file,
// which nothing reads back, so it goes at once) and returns the
// in-memory shuffle unit.
func (r *run) publish(p substrate.Proc, st *storage.Store, name string, chunk, seq int, parts core.MapParts) *unit {
	f, partBytes, _ := engine.WriteMapOutput(p, st, name, parts)
	st.Delete(f)
	return &unit{chunk: chunk, seq: seq, parts: parts, partBytes: partBytes}
}

// reduceResult is one reduce attempt's outcome.
type reduceResult struct {
	ledger int64

	out        engine.OutTotals
	approxKeys int64
	failed     bool // injected failure: provisional output discarded, task restarts
	span       engine.Span
	err        error
}

// afterFeed runs what follows every consumed unit: due HOP snapshots (at
// map progress 1, so never timing's) and sort-merge's multi-pass merge trigger.
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
func (r *run) report(mapDone, mapExtra []*mapResult, redDone, redExtra []*reduceResult, mapFinish time.Duration) *engine.Report {
	rep := &engine.Report{MapFinishTime: mapFinish, Workers: r.workers}
	sums := &r.sums
	sums.ShuffleByNode, sums.Combine = make([]int64, r.spec.Cluster.Nodes), r.comb.Totals()
	publishedBy := func(node int, u *unit) {
		for _, b := range u.partBytes {
			sums.ShuffleByNode[node] += b
		}
	}
	for _, mres := range mapDone {
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
	for _, cr := range r.combRes {
		sums.MapCPU += cr.ledger
		rep.Spans = append(rep.Spans, cr.spans...)
		publishedBy(cr.node, cr.unit)
	}
	for _, mres := range mapExtra {
		rep.Spans = append(rep.Spans, mres.span)
	}
	for _, rres := range redDone {
		sums.ReduceCPU += rres.ledger
		rep.OutputRecords += rres.out.Records
		rep.ApproxKeys += rres.approxKeys
		rep.Outputs = append(rep.Outputs, rres.out.Rows...)
		rep.Spans = append(rep.Spans, rres.span)
	}
	for _, rres := range redExtra {
		rep.Spans = append(rep.Spans, rres.span)
	}
	sums.WastedCPU = r.wastedCPU.Load()
	sums.RefetchBytes = r.refetchBytes.Load()
	r.ReportTail(rep, sums)
	rep.MemShuffleFetches = r.memFetches.Load()
	rep.SnapshotRecords = r.snapshotRecords.Load()
	rep.NodesLost = len(r.KillAfter)
	rep.ReExecutedMapTasks = len(mapDone) - r.TotalMaps
	rep.RestartedReduceTasks = int(r.restartedReduces.Load())
	rep.SpeculativeBackups = int(r.specBackups.Load())
	rep.SpeculativeWins = int(r.specWins.Load())
	rep.FetchRetries = r.fetchRetries.Load()
	rep.Checkpoints = r.checkpoints.Load()
	rep.RunningTime = time.Since(r.start)
	rep.WallTime = rep.RunningTime
	return rep
}
