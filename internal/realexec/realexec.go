// Package realexec runs MapReduce jobs on the wall-clock substrate:
// real goroutines, real time, and a shuffle held in memory up to the
// residency cap and in a scratch file past it.
//
// It is a driver over the task bodies it shares with the DES engine
// (engine.MapBody, engine.ReduceTask and engine.TaskReducer,
// internal/engine/task_*.go): this package decides where an attempt
// runs and how its waiting and fetching pass; what an attempt computes
// and charges, and which reduce attempts an injected failure hits, are
// the shared code's. The engine.Report therefore equals the DES run's
// in every field its tags (engine/report.go) do not let the
// consumption order, the shuffle medium, the clock or a fault move, and
// is identical for any worker count but the fields tagged clock, host
// or races.
//
// Determinism comes from structure, not luck:
//
//   - each task runs serially on its own WallProc with its own store
//     and CPU ledger, so nothing a task computes depends on scheduling;
//   - every reducer starts with the job and consumes the map outputs in
//     canonical (chunk, spill) order, each once it is published, from
//     memory or the scratch file alike, so MemShuffleFetches counts
//     every fetch and DiskShuffleFetches is 0;
//   - cross-task counters are integers summed in task order at the end.
//
// Every task runs as an attempt chain (fault.go), and where a task
// runs, what a kill loses, what races a backup and what combines is
// engine.JobFrame's (engine/task_faults.go), so both drivers lose, redo,
// back up and combine the same tasks.
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

// unit is one piece of map output: published (one per map task, seq 0;
// HOP one per eager spill push), or a deposit for a node-combine fold.
// A unit a node kill loses turns into a placeholder: parts is cleared
// and ready installed before its slot is published, and the
// re-execution republishes into it and closes ready.
type unit struct {
	chunk, seq int
	tasks      []int      // the map tasks a node-combined run covers (nil: chunk alone); chunk is the first
	mu         sync.Mutex // the last consumer evicts parts while a restarted reducer reads
	parts      core.MapParts
	parked     storage.Taken // the output in the scratch file, until nothing can read it back
	ends       []int64       // parked: 0, then each segment's end in parked
	first      []int         // parked: per partition, and one past the last, its first segment's index
	partBytes  []int64
	taken      atomic.Int32 // reduce tasks that consumed it; the last evicts it (run.taken)

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
	held  bool  // the slot's output holds a residency token (claim)
}

// keep makes a unit of chunk's map output: resident if its slot holds
// a token, and parked in the scratch file if not or if a reader may
// come back to it after eviction (again). It runs inside the attempt,
// so a failed write fails the attempt.
func (r *run) keep(chunk int, parts core.MapParts, again bool) *unit {
	u, held := &unit{chunk: chunk, parts: parts}, r.slots[chunk].held
	if again || !held {
		u.parked, u.ends, u.first = r.scratch.Stage(engine.Gather(parts)), []int64{0}, []int{0}
		for _, segs := range parts.Segs {
			for _, seg := range segs {
				u.ends = append(u.ends, u.ends[len(u.ends)-1]+int64(len(seg)))
			}
			u.first = append(u.first, len(u.ends)-1)
		}
	}
	if !held {
		u.parts = core.MapParts{Recs: parts.Recs}
	}
	return u
}

// read returns the unit's output with partitions lo…hi-1 in place,
// read back one read a partition if it is not resident.
func (u *unit) read(lo, hi int) core.MapParts {
	u.mu.Lock()
	defer u.mu.Unlock()
	if u.parts.Segs != nil {
		return u.parts
	}
	parts := core.MapParts{Segs: make([][][]byte, len(u.first)-1), Recs: u.parts.Recs}
	for p := lo; p < hi; p++ {
		e := u.ends[u.first[p] : u.first[p+1]+1]
		buf := make([]byte, e[len(e)-1]-e[0])
		u.parked.ReadAt(buf, e[0])
		for i := 1; i < len(e); i++ {
			parts.Segs[p] = append(parts.Segs[p], buf[e[i-1]-e[0]:e[i]-e[0]:e[i]-e[0]])
		}
	}
	return parts
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
	tokens    chan struct{} // reduce slots
	resident  chan struct{} // a token per resident output (claim)
	halted    chan struct{} // closed by halt where maps may not wait for a token (take)
	halt      func()
	consuming sync.WaitGroup // reduce tasks that may still need map output

	maps     []*mapChain
	comb     *engine.CombinePlan // no chunk deposits unless node combining is on (nodecombine.go)
	combLeft []atomic.Int32      // per group: deposits outstanding
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
	r := &run{JobFrame: frame, spec: &spec, newQ: newQuery, start: time.Now(), workers: workers}
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
	r.resident = make(chan struct{}, spec.Cluster.SlotCache*spec.Cluster.Nodes)
	if len(r.comb.Groups) > 0 {
		// Reducers wait for a group's run until its last chunk is
		// mapped: a worker that waited for a token could wait forever.
		r.halt()
	}
	return r, nil
}

// execute runs map tasks as attempt chains on the worker pool, each
// publishing its slot as it returns, and every reduce task beside them
// from the start, consuming the slots in canonical order as they close.
// The spill files of all of them share one scratch file in
// os.TempDir(), closed when the run returns.
func (r *run) execute() (*engine.Report, error) {
	scratch, err := engine.OpenScratch()
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

	for _, ch := range r.maps {
		if ch.err != nil {
			return nil, ch.err
		}
	}
	for _, ch := range redChains {
		if ch.err != nil {
			return nil, ch.err
		}
	}
	return r.report(redChains, mapFinish), nil
}

// claim hands a map worker the next chunk, -1 once none is left, and
// records in its slot whether it took a residency token first. So each
// claimed chunk holds one unless halted: the slowest reducer waits on a
// claimed chunk, which publishes without waiting on any reducer, or on
// one whose predecessors were all evicted, which left a token free.
func (r *run) claim(next *atomic.Int64) int {
	held := r.take()
	if chunk := int(next.Add(1)) - 1; chunk < r.TotalMaps {
		r.slots[chunk].held = held
		return chunk
	}
	r.give(held)
	return -1
}

// take takes a residency token, waiting for one unless halted (once a
// reduce task fails, or where chunks deposit), and reports whether it did.
func (r *run) take() bool {
	select {
	case r.resident <- struct{}{}:
		return true
	default:
	}
	select {
	case r.resident <- struct{}{}:
		return true
	case <-r.halted:
		return false
	}
}

// give returns a residency token if held.
func (r *run) give(held bool) {
	if held {
		<-r.resident
	}
}

// fill publishes chunk's slot once its map chain has returned (empty if
// it failed or deposited; the last depositor folds the group). An output
// lost to a node kill is published as a placeholder and re-executed on a
// survivor right here; reducers reach it by waitUnit.
func (r *run) fill(chunk int, ch *mapChain) {
	s, w := &r.slots[chunk], ch.winner
	if ch.err == nil {
		s.units, s.maxTS, w.units = w.units, w.maxTS, nil
	}
	if len(s.units) == 0 && (ch.err != nil || !r.comb.Deposits(chunk)) {
		r.give(s.held) // nothing here to evict
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
		re := ch.reexec.units[0]
		u.parked.Release() // the lost output's: no reader reached it
		u.parts, u.parked, u.ends, u.first, u.partBytes = re.parts, re.parked, re.ends, re.first, re.partBytes
		ch.reexec.units = nil
	}
	close(u.ready)
}

// taken counts a reduce task's first consumption of unit i of slot s.
// Once every reduce task has, the unit leaves memory: only its parked
// copy stays where a reduce attempt can restart, else it is dropped,
// parked copy and all.
// The slot's last unit gives back its token.
func (r *run) taken(s *slot, i int) {
	u := s.units[i]
	if int(u.taken.Add(1)) < r.NumReducers {
		return
	}
	if r.spec.ReduceRestarts() {
		u.mu.Lock()
		u.parts = core.MapParts{Recs: u.parts.Recs}
		u.mu.Unlock()
	} else {
		u.parked.Release()
		s.units[i] = nil
	}
	if i == len(s.units)-1 {
		r.give(s.held)
	}
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

// newStore builds a per-task wall store configured like a DES node's.
func (r *run) newStore(node int) *storage.Store {
	st := storage.NewWallStore(node, r.spec.Cluster.Model, r.scratch)
	st.Checksums = r.spec.Cluster.Checksums
	if r.spec.Cluster.SSDIntermediate {
		st.Intermediate = cost.SSD
	}
	return st
}

// addStore folds a finished attempt's store counters into the run's
// sums; they are additive, so finishing order does not reach the Report.
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
	node    int
	units   []*unit
	shuffle int64 // bytes published
	ledger  int64

	mapped, emitted, quarantined int64
	maxTS                        int64 // math.MinInt64: no record seen
	failed                       bool  // injected failure: output discarded, task retries
	superseded                   bool  // lost the claim race to a speculative twin
	span                         engine.Span
	err                          error
}

// runMapAttempt executes one map task attempt: an engine.MapBody over
// the chunk, its output written for U3 accounting and kept as a shuffle
// unit. With inject the attempt dies at the spec's FailPoint; with a
// claim it races a speculative twin and only the first to claim
// publishes; with damage (primary chains) its store injects the plan's
// disk damage, and a checksum failure fails the attempt.
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
			res.units = append(res.units, r.publish(p, st, name, chunk, seq, parts, &res.shuffle))
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
			// Node-combine: the output waits for the group's fold; the
			// merged run is the only U3 write, as on the engine.
			u := r.keep(chunk, parts, false)
			r.comb.Deposit(chunk, func() [][][]byte {
				defer r.give(r.slots[chunk].held)
				defer u.parked.Release()
				return u.read(0, r.NumReducers).Segs
			})
		} else {
			res.units = append(res.units,
				r.publish(p, st, fmt.Sprintf("map%06d.a%d.out", chunk, attempt), chunk, 0, parts, &res.shuffle))
		}
	}
	res.span = span("map")
	return res
}

// publish charges the output to the task's store (U3, for parity with
// the DES; nothing reads the file back, so it goes at once), adds its
// bytes to shuffle and returns the shuffle unit.
func (r *run) publish(p substrate.Proc, st *storage.Store, name string, chunk, seq int, parts core.MapParts, shuffle *int64) *unit {
	f, partBytes, _ := engine.WriteMapOutput(p, st, name, parts)
	*shuffle += f.Size()
	st.Delete(f)
	u := r.keep(chunk, parts, r.spec.ReduceRestarts())
	u.seq, u.partBytes = seq, partBytes
	return u
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
// knows. A chain's winner counts, and so does a re-executed map, as on
// the DES; failed and superseded attempts add only their spans (their
// CPU went to wastedCPU, their I/O to the sums).
func (r *run) report(redChains []*reduceChain, mapFinish time.Duration) *engine.Report {
	rep := &engine.Report{MapFinishTime: mapFinish, Workers: r.workers}
	sums := &r.sums
	sums.ShuffleByNode, sums.Combine = make([]int64, r.spec.Cluster.Nodes), r.comb.Totals()
	for _, ch := range r.maps {
		done := []*mapResult{ch.winner}
		if ch.reexec != nil {
			done = append(done, ch.reexec)
			rep.ReExecutedMapTasks++
		}
		for _, mres := range done {
			sums.MapCPU += mres.ledger
			rep.MapInputRecords += mres.mapped
			rep.MapOutputRecords += mres.emitted
			rep.QuarantinedRecords += mres.quarantined
			rep.Spans = append(rep.Spans, mres.span)
			sums.ShuffleByNode[mres.node] += mres.shuffle
		}
	}
	// Combine folds count in group order, like the engine's fold order.
	for _, cr := range r.combRes {
		sums.MapCPU += cr.ledger
		rep.Spans = append(rep.Spans, cr.spans...)
		sums.ShuffleByNode[cr.node] += cr.shuffle
	}
	for _, ch := range r.maps {
		for _, mres := range ch.extras {
			rep.Spans = append(rep.Spans, mres.span)
		}
	}
	for _, ch := range redChains {
		sums.ReduceCPU += ch.winner.ledger
		rep.OutputRecords += ch.winner.out.Records
		rep.ApproxKeys += ch.winner.approxKeys
		rep.Outputs = append(rep.Outputs, ch.winner.out.Rows...)
		rep.Spans = append(rep.Spans, ch.winner.span)
	}
	for _, ch := range redChains {
		for _, rres := range ch.extras {
			rep.Spans = append(rep.Spans, rres.span)
		}
	}
	sums.WastedCPU = r.wastedCPU.Load()
	sums.RefetchBytes = r.refetchBytes.Load()
	r.ReportTail(rep, sums)
	rep.MemShuffleFetches = r.memFetches.Load()
	rep.SnapshotRecords = r.snapshotRecords.Load()
	rep.NodesLost = len(r.KillAfter)
	rep.RestartedReduceTasks = int(r.restartedReduces.Load())
	rep.SpeculativeBackups = int(r.specBackups.Load())
	rep.SpeculativeWins = int(r.specWins.Load())
	rep.FetchRetries = r.fetchRetries.Load()
	rep.Checkpoints = r.checkpoints.Load()
	rep.RunningTime = time.Since(r.start)
	rep.WallTime = rep.RunningTime
	return rep
}
