// Package realexec runs MapReduce jobs on the wall-clock substrate:
// real goroutines, real time, and an M3R-style in-memory shuffle.
//
// It executes the same platform components (internal/core,
// internal/sortmerge) against the same JobSpec as the DES engine
// (internal/engine), producing an engine.Report whose answer fields —
// output records and collected rows, map/reduce record counts, byte
// counters, virtual CPU ledgers — are bit-for-bit identical to the
// engine's clean-run path and deterministic for any worker count.
// Wall-clock fields (RunningTime, MapFinishTime, WallTime, Spans) are
// measured, not simulated, and vary run to run.
//
// Determinism comes from structure, not luck:
//
//   - each task runs serially on its own WallProc (Workers() == 1) with
//     its own store and CPU ledger, so nothing a task computes depends
//     on scheduling;
//   - a barrier separates map and reduce phases, and every reducer
//     consumes the cached map-output partitions in fixed (chunk, spill)
//     order — the shuffle is entirely in memory, the M3R model, so
//     MemShuffleFetches counts every fetch and DiskShuffleFetches is 0;
//   - cross-task counters are integers summed in task order at the end.
//
// Fault plans and checkpointing run here too (see fault.go): node
// kills anchored to map-progress points, stragglers, per-attempt
// map/reduce failures, transient shuffle-read errors, speculative map
// backups, and checkpointed INC/DINC reducer state all execute with
// seeded, structural triggers, so answers and logical counters stay
// bit-identical to the fault-free run. Only two trigger primitives
// remain DES-only — virtual-time node kills (KillNodes) and
// disk-damage injection (FaultPlan.Disk) — and Run rejects those by
// name (engine.JobSpec.RealUnsupported).
package realexec

import (
	"bytes"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bytestore"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/dfs"
	"repro/internal/engine"
	"repro/internal/hashfam"
	"repro/internal/kvenc"
	"repro/internal/mr"
	"repro/internal/sortmerge"
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

// collector mirrors the engine's map-output abstraction.
type collector interface {
	Add(key, val []byte)
	Finish() (parts [][][]byte, mapped, emitted int64)
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
	parts      [][][]byte
	partBytes  []int64

	ready chan struct{} // non-nil only for lost units awaiting re-execution
	err   error         // re-execution failure, set before ready closes
}

// run is the shared state of one real-backend job.
type run struct {
	spec        *engine.JobSpec
	newQ        func() mr.Query
	model       cost.Model
	fam         *hashfam.Family
	start       time.Time
	numReducers int
	totalMaps   int

	inputBytesEst int64

	units    []*unit
	globalWM int64
	hasWM    bool

	// comb is the barrier-time in-node combine plan; nil unless the
	// spec resolves node combining on. See nodecombine.go.
	comb *rcombine

	fnRecords       atomic.Int64
	memFetches      atomic.Int64
	fetchesDone     atomic.Int64
	snapshotRecords atomic.Int64

	// Fault-injected runs only; nil flt routes every task through the
	// clean code paths untouched.
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
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	// Capability check, not a blanket rejection: fault plans and
	// checkpointing run here; only the trigger primitives tied to the
	// DES clock are refused, by name.
	if msg := spec.RealUnsupported(); msg != "" {
		return nil, fmt.Errorf("realexec: %s", msg)
	}
	workers := s.Workers
	if workers < 1 {
		workers = 1
	}
	cfg := &spec.Cluster
	r := &run{
		spec:        &spec,
		newQ:        s.NewQuery,
		model:       cfg.Model,
		fam:         hashfam.NewFamily(spec.Seed ^ 0x0fa57),
		start:       time.Now(),
		numReducers: cfg.R * cfg.Nodes,
		totalMaps:   spec.Input.NumChunks(),
	}
	if r.totalMaps == 0 {
		return nil, fmt.Errorf("realexec: input has no chunks")
	}
	r.inputBytesEst = int64(len(spec.Input.ChunkBytes(0))) * int64(r.totalMaps)

	// HOP admits no fault plans (validation), and checkpointing is an
	// INC/DINC mechanism on both substrates — everything else keeps the
	// clean path, so fault-free reports cannot drift.
	if spec.Faults.Active() || (spec.CheckpointEvery > 0 && spec.Platform.Incremental()) {
		r.flt = newFaults(&spec, r.totalMaps)
	}

	placement := dfs.NewPlacement(cfg.Nodes, cfg.Replication)
	assign := dfs.NewAssignment(spec.Input, placement)
	if spec.NodeCombineActive() {
		r.comb = newRCombine(r, assign)
	}

	// Map phase: fan the chunks over the worker pool; each task owns
	// its store, proc, query, and ledger. Faulted runs execute attempt
	// chains (injected failures, displaced tasks, speculative backups)
	// instead of single attempts.
	mapRes := make([]*mapResult, r.totalMaps)
	var mapExtra []*mapResult
	if r.flt == nil {
		forEach(workers, r.totalMaps, func(chunk int) {
			mapRes[chunk] = r.runMapAttempt(chunk, assign.Node(chunk), 0, false, nil)
		})
		for _, mres := range mapRes {
			if mres.err != nil {
				return nil, mres.err
			}
		}
	} else {
		chains := make([]*mapChain, r.totalMaps)
		forEach(workers, r.totalMaps, func(chunk int) {
			chains[chunk] = r.runMapChain(chunk, assign.Node(chunk))
		})
		for chunk, ch := range chains {
			if ch.err != nil {
				return nil, ch.err
			}
			mapRes[chunk] = ch.winner
			mapExtra = append(mapExtra, ch.extras...)
		}
	}
	mapFinish := time.Since(r.start)

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
	var combRes []*rcResult
	if r.comb != nil && len(r.comb.groups) > 0 {
		combRes = r.comb.fold(mapRes, workers)
		for _, cr := range combRes {
			if cr.err != nil {
				return nil, cr.err
			}
			r.units = append(r.units, cr.unit)
		}
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
	if r.flt != nil && len(r.flt.killAt) > 0 {
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
			u.parts, u.partBytes = nil, nil
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

	// Reduce phase. Faulted runs execute restart ladders per task.
	redRes := make([]*reduceResult, r.numReducers)
	var redExtra []*reduceResult
	if r.flt == nil {
		forEach(workers, r.numReducers, func(ridx int) {
			redRes[ridx] = r.runReduceTask(ridx, ridx%cfg.Nodes)
		})
		for _, rres := range redRes {
			if rres.err != nil {
				return nil, rres.err
			}
		}
	} else {
		chains := make([]*reduceChain, r.numReducers)
		forEach(workers, r.numReducers, func(ridx int) {
			chains[ridx] = r.runReduceChain(ridx, ridx%cfg.Nodes)
		})
		reexecWG.Wait()
		for _, res := range reexecRes {
			if res != nil && res.err != nil {
				return nil, res.err
			}
		}
		for ridx, ch := range chains {
			if ch.err != nil {
				return nil, ch.err
			}
			redRes[ridx] = ch.winner
			redExtra = append(redExtra, ch.extras...)
		}
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
		Fam:   r.fam,
		ChargeCPU: func(d time.Duration) {
			if d > 0 {
				*ledger += int64(d)
			}
		},
		FnRecords: func(k int64) { r.fnRecords.Add(k) },
	}
}

// mapResult is one map attempt's outcome.
type mapResult struct {
	store  *storage.Store
	node   int
	units  []*unit
	ledger int64

	// parts holds the finished output of a combine-eligible task: it
	// deposits here for the barrier fold instead of publishing a unit.
	parts [][][]byte

	mapped, emitted, quarantined int64
	maxTS                        int64
	hasTS                        bool
	failed                       bool // injected failure: output discarded, task retries
	superseded                   bool // lost the claim race to a speculative twin
	span                         engine.Span
	err                          error
}

// runMapAttempt executes one map task attempt: read the chunk in
// segments (charging input I/O and CPU exactly as the engine does),
// feed records through a fresh query instance into the platform
// collector, write the map output for U3 accounting parity, and cache
// it as a shuffle unit. Clean runs call it once per chunk with
// attempt 0 and no injection; faulted runs drive it from attempt
// chains (fault.go). When inject is set the attempt dies at the
// spec's FailPoint through the chunk; when claim is non-nil the
// attempt races a speculative twin and only the first to claim
// publishes.
func (r *run) runMapAttempt(chunk, node, attempt int, inject bool, claim *atomic.Bool) (res *mapResult) {
	res = &mapResult{node: node}
	defer func() {
		if rec := recover(); rec != nil {
			res.err = fmt.Errorf("realexec: map task %d attempt %d: %v", chunk, attempt, rec)
		}
	}()
	p := substrate.NewWallProc(r.start)
	taskStart := p.Now()
	st := r.newStore(node)
	res.store = st
	rt := r.newRuntime(p, st, &res.ledger)
	q := r.newQ()
	wm, _ := q.(mr.Watermarker)
	cfg := &r.spec.Cluster
	model := r.model

	var coll collector
	var hop *wallHopCollector
	switch r.spec.Platform {
	case engine.SortMerge:
		coll = sortmerge.NewMapCollector(rt, q, sortmerge.MapCollectorConfig{
			Prefix:      fmt.Sprintf("m%06d.a%d", chunk, attempt),
			Partitions:  r.numReducers,
			Buffer:      cfg.MapBuffer,
			MergeFactor: cfg.MergeFactor,
			ReadSegment: cfg.ReadSegment,
		})
	case engine.HOP:
		hop = newWallHOPCollector(r, rt, res, chunk, q)
		coll = hop
	default:
		coll = core.NewHashMapCollector(rt, q, r.numReducers, cfg.MapBuffer,
			r.spec.Platform.Incremental())
	}
	hashCombining := false
	if hashColl, ok := coll.(*core.HashMapCollector); ok {
		hashCombining = hashColl.Combining()
	}

	data := r.spec.Input.ChunkBytes(chunk)
	seg := cfg.ReadSegment
	if seg <= 0 || seg > int64(len(data)) {
		seg = int64(len(data))
	}
	failAt := int64(-1)
	if inject {
		failAt = int64(r.flt.failPoint() * float64(len(data)))
	}
	t := &mapTask{run: r, res: res, q: q, wm: wm, coll: coll}
	t.scratch = bytestore.Get(int(seg))
	for off := int64(0); off < int64(len(data)); {
		end := off + seg
		if end >= int64(len(data)) {
			end = int64(len(data))
		} else if nl := bytes.IndexByte(data[end:], '\n'); nl >= 0 {
			// Extend to the next record boundary, as the engine does.
			end += int64(nl) + 1
		} else {
			end = int64(len(data))
		}
		st.ChargeInputRead(p, end-off)
		pairsBefore := t.pairs
		records := t.segment(data[off:end])
		if qb := r.spec.SkipBadRecords; qb > 0 && res.quarantined > qb {
			panic(fmt.Errorf("map task %d quarantined %d records, over the %d budget",
				chunk, res.quarantined, qb))
		}
		cpu := model.CPUOps(model.CPUParseByte, end-off) +
			model.CPUOps(model.CPUMapRecord, records)
		switch {
		case r.spec.Platform == engine.SortMerge || r.spec.Platform == engine.HOP:
			// Sorting CPU is charged inside the collector at spill time.
		case hashCombining:
			// Per emitted pair, not per input record: the collector
			// touches its table once per Add call (the engine's rule).
			cpu += model.CPUOps(model.CPUHashInsert+model.CPUCombine, t.pairs-pairsBefore)
		default:
			cpu += model.CPUOps(model.CPUHashInsert, t.pairs-pairsBefore)
		}
		rt.ChargeCPU(cpu)
		off = end
		if failAt >= 0 && end >= failAt {
			// Injected attempt death at the same byte offset the DES
			// uses: all work done so far is discarded and wasted.
			bytestore.Put(t.scratch)
			res.failed = true
			res.span = engine.Span{
				Name: fmt.Sprintf("map%06d#%d", chunk, attempt), Kind: "map-failed", Node: node,
				Start: time.Duration(taskStart), End: time.Duration(p.Now()),
			}
			return res
		}
	}
	bytestore.Put(t.scratch)

	parts, mapped, emitted := coll.Finish()
	res.mapped, res.emitted = mapped, emitted
	if r.flt != nil {
		r.flt.slowSleep(node)
	}
	if claim != nil && !claim.CompareAndSwap(false, true) {
		// The speculative twin claimed first: suppress the duplicate —
		// nothing is published, the completed compute is wasted.
		res.superseded = true
		res.span = engine.Span{
			Name: fmt.Sprintf("map%06d#%d", chunk, attempt), Kind: "map-superseded", Node: node,
			Start: time.Duration(taskStart), End: time.Duration(p.Now()),
		}
		return res
	}
	if hop == nil {
		if r.comb != nil && r.comb.elig[chunk] {
			// Node-combine: the output parks for the barrier fold instead
			// of publishing; no U3 write happens here — the merged run is
			// the only MapOutput-class write, exactly as on the engine.
			res.parts = parts
		} else {
			res.units = append(res.units,
				r.publish(p, st, fmt.Sprintf("map%06d.a%d.out", chunk, attempt), chunk, 0, parts))
		}
	}
	res.span = engine.Span{
		Name: fmt.Sprintf("map%06d#%d", chunk, attempt), Kind: "map", Node: node,
		Start: time.Duration(taskStart), End: time.Duration(p.Now()),
	}
	return res
}

// mapTask is the per-record state of one running map task.
type mapTask struct {
	run     *run
	res     *mapResult
	q       mr.Query
	wm      mr.Watermarker
	coll    collector
	scratch []byte
	pairs   int64 // collector Add calls (emitted pairs) so far
}

// segment feeds every record of one read segment through the map
// function, returning the record count.
func (t *mapTask) segment(segment []byte) (records int64) {
	quarantine := t.run.spec.SkipBadRecords > 0
	for len(segment) > 0 {
		nl := bytes.IndexByte(segment, '\n')
		var line []byte
		if nl < 0 {
			line, segment = segment, nil
		} else {
			line, segment = segment[:nl], segment[nl+1:]
		}
		if len(line) == 0 {
			continue
		}
		records++
		if quarantine {
			t.quarantineRecord(line)
		} else {
			t.record(line)
		}
	}
	return records
}

// record runs one input record: emissions buffer in scratch and commit
// to the collector only after Map (and RecordTime) succeed, so a
// quarantined record leaves no trace — the same rollback contract as
// the engine's segment replay.
func (t *mapTask) record(line []byte) {
	t.scratch = t.scratch[:0]
	t.q.Map(line, func(k, v []byte) {
		t.scratch = kvenc.AppendPair(t.scratch, k, v)
	})
	var ts int64
	if t.wm != nil {
		ts = t.wm.RecordTime(line)
	}
	it := kvenc.NewIterator(t.scratch)
	for {
		k, v, more := it.Next()
		if !more {
			break
		}
		t.coll.Add(k, v)
		t.pairs++
	}
	if err := it.Err(); err != nil {
		// The pairs never left memory: a broken stream is a bug.
		panic(fmt.Errorf("corrupt record replay: %w", err))
	}
	if t.wm != nil && (!t.res.hasTS || ts > t.res.maxTS) {
		t.res.maxTS, t.res.hasTS = ts, true
	}
}

// quarantineRecord is record under the bad-record quarantine: a panic
// from Map or RecordTime skips and counts the record.
func (t *mapTask) quarantineRecord(line []byte) {
	defer func() {
		if rec := recover(); rec != nil {
			t.res.quarantined++
		}
	}()
	t.record(line)
}

// publish writes the per-partition segments to the task's store (U3,
// kept for accounting parity with the engine even though the shuffle
// never reads it back) and returns the in-memory shuffle unit.
func (r *run) publish(p substrate.Proc, st *storage.Store, name string, chunk, seq int, parts [][][]byte) *unit {
	u := &unit{chunk: chunk, seq: seq, parts: parts, partBytes: make([]int64, len(parts))}
	var total int
	for _, segs := range parts {
		for _, s := range segs {
			total += len(s)
		}
	}
	all := bytestore.Get(total)
	for pi, segs := range parts {
		for _, s := range segs {
			all = append(all, s...)
			u.partBytes[pi] += int64(len(s))
		}
	}
	f := st.Create(name, storage.MapOutput)
	if len(all) > 0 {
		// One write request, one checksum frame per partition region,
		// like the engine's publishMapOutput.
		st.AppendFrames(p, f, all, storage.MapOutput, u.partBytes)
	}
	bytestore.Put(all)
	return u
}

// wallHopCollector is the engine's hopCollector on the wall substrate:
// map output is pushed eagerly, one sorted (optionally combined) spill
// at a time, each spill becoming its own shuffle unit.
type wallHopCollector struct {
	r     *run
	rt    *core.Runtime
	res   *mapResult
	chunk int
	comb  mr.Combiner
	h1    interface {
		Bucket(key []byte, n int) int
	}

	buf     []byte
	pk      []byte
	spills  int
	mapped  int64
	emitted int64
}

func newWallHOPCollector(r *run, rt *core.Runtime, res *mapResult, chunk int, q mr.Query) *wallHopCollector {
	h := &wallHopCollector{r: r, rt: rt, res: res, chunk: chunk, h1: rt.Fam.Fn(1)}
	if c, ok := q.(mr.Combiner); ok {
		h.comb = c
	}
	return h
}

// Add implements collector.
func (h *wallHopCollector) Add(key, val []byte) {
	h.mapped++
	part := h.h1.Bucket(key, h.r.numReducers)
	h.pk = append(h.pk[:0], byte(part>>8), byte(part))
	h.pk = append(h.pk, key...)
	h.buf = kvenc.AppendPair(h.buf, h.pk, val)
	if int64(len(h.buf)) >= h.r.spec.Cluster.MapBuffer {
		h.push()
	}
}

// push sorts the buffer, applies the combiner, and publishes the spill
// as its own shuffle unit.
func (h *wallHopCollector) push() {
	if len(h.buf) == 0 {
		return
	}
	model := h.rt.Model
	sorted, n := h.rt.SortStreamTo(bytestore.Get(len(h.buf)), h.buf)
	h.rt.ChargeCPU(model.CPUSort(int64(n)))
	h.buf = h.buf[:0]
	if h.comb != nil {
		out := bytestore.Get(len(sorted))
		var records int64
		if err := kvenc.MergeGroupsChecked([][]byte{sorted}, func(pk []byte, vals kvenc.ValueIter) bool {
			grp := &kvenc.CountingIter{Inner: vals}
			h.comb.Combine(pk[2:], grp, func(v []byte) {
				out = kvenc.AppendPair(out, pk, v)
			})
			records += grp.N
			return true
		}); err != nil {
			panic(fmt.Errorf("corrupt hop spill in map task %d: %w", h.chunk, err))
		}
		h.rt.ChargeOps(model.CPUCombine, records)
		bytestore.Put(sorted)
		sorted = out
	}
	parts := make([][][]byte, h.r.numReducers)
	segs := make([][]byte, h.r.numReducers)
	it := kvenc.NewIterator(sorted)
	var emitted int64
	for {
		pk, v, ok := it.Next()
		if !ok {
			break
		}
		part := int(pk[0])<<8 | int(pk[1])
		segs[part] = kvenc.AppendPair(segs[part], pk[2:], v)
		emitted++
	}
	if err := it.Err(); err != nil {
		panic(fmt.Errorf("corrupt hop spill in map task %d: %w", h.chunk, err))
	}
	bytestore.Put(sorted)
	for pi, s := range segs {
		if len(s) > 0 {
			parts[pi] = [][]byte{s}
		}
	}
	h.emitted += emitted
	h.spills++
	h.res.units = append(h.res.units, h.r.publish(h.rt.P, h.res.store,
		fmt.Sprintf("map%06d.push%d", h.chunk, h.spills), h.chunk, h.spills, parts))
}

// Finish implements collector: HOP publishes incrementally, so only
// the last buffered spill remains.
func (h *wallHopCollector) Finish() ([][][]byte, int64, int64) {
	h.push()
	return nil, h.mapped, h.emitted
}

// reduceResult is one reduce attempt's outcome.
type reduceResult struct {
	store  *storage.Store
	ledger int64

	outRecords int64
	outBytes   int64
	approxKeys int64
	outputs    [][2]string
	failed     bool // injected failure: provisional output discarded, task restarts
	span       engine.Span
	err        error
}

// outputWriter is the wall-clock reduce output sink: it counts records
// and charges ReduceOutput writes in Page-sized batches, like the
// engine's write-behind queue.
//
// Under fault plans that can kill a reduce attempt after it has
// emitted (injected reduce failures, node kills), the writer is
// provisional: emissions buffer in the attempt until commit, so a
// failed attempt's output vanishes without trace, and checkpoints
// stage the buffered prefix so a restart does not re-emit it — the
// same contract as the engine's provisional reduceOutput.
type outputWriter struct {
	p           substrate.Proc
	st          *storage.Store
	res         *reduceResult
	flushAt     int64
	collect     bool
	pending     int64
	provisional bool

	urecords int64
	ubytes   int64
	staged   int64 // provisional bytes already charged by a checkpoint
	urows    [][2]string
}

// Emit implements mr.OutputWriter.
func (w *outputWriter) Emit(key, value []byte) {
	sz := int64(len(key) + len(value) + 2)
	if w.provisional {
		w.urecords++
		w.ubytes += sz
		if w.collect {
			w.urows = append(w.urows, [2]string{string(key), string(value)})
		}
		return
	}
	w.res.outRecords++
	w.res.outBytes += sz
	if w.collect {
		w.res.outputs = append(w.res.outputs, [2]string{string(key), string(value)})
	}
	w.pending += sz
	if w.pending >= w.flushAt {
		w.flush()
	}
}

func (w *outputWriter) flush() {
	if w.pending > 0 {
		w.st.ChargeOutputWrite(w.p, w.pending)
		w.pending = 0
	}
}

// commit folds the provisional buffer into the attempt's result at
// successful completion; bytes a checkpoint already staged are not
// re-charged.
func (w *outputWriter) commit() {
	if !w.provisional {
		return
	}
	w.res.outRecords += w.urecords
	w.res.outBytes += w.ubytes
	w.res.outputs = append(w.res.outputs, w.urows...)
	w.pending += w.ubytes - w.staged
	w.urecords, w.ubytes, w.staged, w.urows = 0, 0, 0, nil
}

// stageInto persists the provisional prefix with a checkpoint: the
// delta since the last stage is charged now, and the checkpoint
// snapshots the buffered rows (capacity-clipped so later emissions
// cannot alias into the snapshot).
func (w *outputWriter) stageInto(ck *rckpt) {
	if !w.provisional {
		return
	}
	if delta := w.ubytes - w.staged; delta > 0 {
		w.st.ChargeOutputWrite(w.p, delta)
	}
	w.staged = w.ubytes
	w.urows = w.urows[:len(w.urows):len(w.urows)]
	ck.outRecords, ck.outBytes, ck.outRows = w.urecords, w.ubytes, w.urows
}

// restoreFrom preloads the provisional buffer from a checkpoint at
// restart: the staged prefix is already on disk, so only post-restore
// emissions will be charged.
func (w *outputWriter) restoreFrom(ck *rckpt) {
	if !w.provisional {
		return
	}
	w.urecords, w.ubytes, w.staged = ck.outRecords, ck.outBytes, ck.outBytes
	w.urows = ck.outRows
}

// discard drops the provisional buffer when an attempt fails.
func (w *outputWriter) discard() {
	w.urecords, w.ubytes, w.staged, w.urows = 0, 0, 0, nil
	w.pending = 0
}

// snapshotWriter sinks approximate HOP snapshot output: records count
// separately from the final answers, bytes are written back like
// reduce output.
type snapshotWriter struct {
	r       *run
	p       substrate.Proc
	st      *storage.Store
	pending int64
}

// Emit implements mr.OutputWriter.
func (w *snapshotWriter) Emit(key, value []byte) {
	w.r.snapshotRecords.Add(1)
	w.pending += int64(len(key) + len(value) + 2)
}

func (w *snapshotWriter) flush() {
	if w.pending > 0 {
		w.st.ChargeOutputWrite(w.p, w.pending)
		w.pending = 0
	}
}

// reducers bundles the platform reducer one attempt drives; exactly
// one field is non-nil.
type reducers struct {
	smr   *sortmerge.Reducer
	mrh   *core.MRHashReducer
	inch  *core.INCHashReducer
	dinch *core.DINCHashReducer
}

func (red *reducers) incremental() bool { return red.inch != nil || red.dinch != nil }

// buildReducers constructs the platform reducer for one attempt with
// the same configuration on every attempt (only the store prefix
// varies), so replayed attempts recompute identically.
func (r *run) buildReducers(rt *core.Runtime, q mr.Query, out *outputWriter, prefix string) *reducers {
	cfg := &r.spec.Cluster
	red := &reducers{}
	switch r.spec.Platform {
	case engine.SortMerge, engine.HOP:
		red.smr = sortmerge.NewReducer(rt, q, sortmerge.ReducerConfig{
			Prefix:      prefix,
			Buffer:      cfg.ReduceBuffer,
			MergeFactor: cfg.MergeFactor,
			ReadSegment: cfg.ReadSegment,
		})
	case engine.MRHash:
		red.mrh = core.NewMRHashReducer(rt, q, core.MRHashConfig{
			Prefix:        prefix,
			MemBudget:     cfg.ReduceBuffer,
			Page:          cfg.Page,
			ReadSegment:   cfg.ReadSegment,
			ExpectedBytes: r.expectedReducerBytes(),
		})
	case engine.INCHash:
		red.inch = core.NewINCHashReducer(rt, q, core.INCHashConfig{
			Prefix:             prefix,
			MemBudget:          cfg.ReduceBuffer,
			Page:               cfg.Page,
			ReadSegment:        cfg.ReadSegment,
			ExpectedStateBytes: r.expectedReducerStateBytes(),
		}, out)
	case engine.DINCHash:
		red.dinch = core.NewDINCHashReducer(rt, q, core.DINCHashConfig{
			Prefix:               prefix,
			MemBudget:            cfg.ReduceBuffer,
			Page:                 cfg.Page,
			ReadSegment:          cfg.ReadSegment,
			ExpectedDistinctKeys: r.spec.Hints.DistinctKeys / int64(r.numReducers),
			KeyBytes:             16,
			CoverageThreshold:    r.spec.CoverageThreshold,
			ScanEvery:            r.spec.ScanEvery,
		}, out)
	}
	return red
}

// feedUnit drives one cached unit's partition for ridx into the
// platform reducer, charging consume CPU. Callers skip it for empty
// partitions.
func (r *run) feedUnit(rt *core.Runtime, red *reducers, u *unit, ridx int) {
	segs := u.parts[ridx]
	size := u.partBytes[ridx]
	model := r.model
	switch {
	case red.smr != nil:
		for _, seg := range segs {
			red.smr.Consume(seg)
		}
		rt.ChargeCPU(model.CPUOps(model.CPUParseByte, size))
	default:
		var records int64
		for _, seg := range segs {
			it := kvenc.NewIterator(seg)
			for {
				k, v, more := it.Next()
				if !more {
					break
				}
				records++
				switch {
				case red.mrh != nil:
					red.mrh.Consume(k, v)
				case red.inch != nil:
					red.inch.Consume(k, v)
				default:
					red.dinch.Consume(k, v)
				}
			}
			if err := it.Err(); err != nil {
				panic(fmt.Errorf("corrupt shuffle segment from map task %d: %w", u.chunk, err))
			}
		}
		per := model.CPUHashInsert
		if r.spec.Platform.Incremental() {
			per += model.CPUCombine
		}
		rt.ChargeCPU(model.CPUOps(per, records))
	}
}

// finish runs the platform's finalization into out.
func (r *run) finishReducer(red *reducers, out *outputWriter, res *reduceResult) {
	switch {
	case red.smr != nil:
		red.smr.PrepareFinal()
		red.smr.Finish(out)
	case red.mrh != nil:
		red.mrh.Finish(out)
	case red.inch != nil:
		red.inch.Finish()
	default:
		red.dinch.Finish()
		res.approxKeys = red.dinch.ApproxKeys()
	}
}

// runReduceTask executes one clean reduce task: consume every cached
// shuffle unit's partition in fixed order through the platform
// reducer, then finish. The map barrier has already advanced the
// watermark to the global maximum, exactly the horizon
// reference.RunWithWatermarks reduces under. Faulted runs use
// runReduceChain (fault.go) instead.
func (r *run) runReduceTask(ridx, node int) (res *reduceResult) {
	res = &reduceResult{}
	defer func() {
		if rec := recover(); rec != nil {
			res.err = fmt.Errorf("realexec: reduce task %d: %v", ridx, rec)
		}
	}()
	p := substrate.NewWallProc(r.start)
	taskStart := p.Now()
	st := r.newStore(node)
	res.store = st
	rt := r.newRuntime(p, st, &res.ledger)
	q := r.newQ()
	if wm, ok := q.(mr.Watermarker); ok && r.hasWM {
		wm.AdvanceWatermark(r.globalWM)
	}
	cfg := &r.spec.Cluster
	out := &outputWriter{p: p, st: st, res: res, flushAt: cfg.Page, collect: r.spec.CollectOutput}
	red := r.buildReducers(rt, q, out, fmt.Sprintf("r%03d", ridx))

	// Shuffle loop over the cached units. Every fetch is served from
	// memory; the map barrier pins the progress fraction at 1, so HOP
	// snapshots all fire after the first consumed unit — deterministic
	// for any worker count.
	nextSnap := r.spec.SnapshotEvery
	for _, u := range r.units {
		if u.partBytes[ridx] > 0 {
			r.memFetches.Add(1)
			r.feedUnit(rt, red, u, ridx)
		}
		r.fetchesDone.Add(1)

		if red.smr != nil && r.spec.SnapshotEvery > 0 {
			for nextSnap < 1 {
				snap := &snapshotWriter{r: r, p: p, st: st}
				red.smr.Snapshot(snap)
				snap.flush()
				nextSnap += r.spec.SnapshotEvery
			}
		}
		if red.smr != nil && red.smr.Tree().NeedsMerge() {
			for red.smr.Tree().NeedsMerge() {
				red.smr.Tree().MergeOnce(p, red.smr.Charger())
			}
		}
	}

	r.finishReducer(red, out, res)
	out.flush()
	res.span = engine.Span{
		Name: fmt.Sprintf("reduce%03d", ridx), Kind: "reduce", Node: node,
		Start: time.Duration(taskStart), End: time.Duration(p.Now()),
	}
	return res
}

// expectedReducerBytes estimates |D_r| from the input size and Km.
func (r *run) expectedReducerBytes() int64 {
	return int64(float64(r.inputBytesEst) * r.spec.Hints.Km / float64(r.numReducers))
}

// expectedReducerStateBytes estimates Δ at one reducer.
func (r *run) expectedReducerStateBytes() int64 {
	stateSize := int64(64)
	if inc, ok := r.spec.Query.(mr.Incremental); ok {
		stateSize = int64(inc.StateSize() + 24)
	}
	return r.spec.Hints.DistinctKeys * stateSize / int64(r.numReducers)
}

// report assembles the engine.Report. All answer-stable fields are sums
// of per-task integers combined in task order, identical for any worker
// count; RunningTime, MapFinishTime, WallTime, and Spans are measured
// wall time.
//
// mapDone and redDone hold completed (counted) attempts — including
// re-executed maps, which count again exactly as on the DES; mapExtra
// and redExtra hold failed and superseded attempts, which contribute
// only their I/O accounting (their CPU already went to wastedCPU).
func (r *run) report(mapDone, mapExtra []*mapResult, redDone, redExtra []*reduceResult, combRes []*rcResult, mapFinish time.Duration, workers int) *engine.Report {
	m := r.model
	nodes := int64(r.spec.Cluster.Nodes)
	var c storage.Counters
	var mapCPU, reduceCPU int64
	rep := &engine.Report{
		Query:         r.spec.Query.Name(),
		Platform:      r.spec.Platform.String(),
		MapFinishTime: mapFinish,
	}
	shufByNode := make([]int64, r.spec.Cluster.Nodes)
	for _, mres := range mapDone {
		c.Add(mres.store.Counters())
		mapCPU += mres.ledger
		rep.MapInputRecords += mres.mapped
		rep.MapOutputRecords += mres.emitted
		rep.QuarantinedRecords += mres.quarantined
		rep.IORetries += mres.store.IORetries()
		rep.CorruptFramesDetected += mres.store.CorruptFramesDetected()
		rep.Spans = append(rep.Spans, mres.span)
		for _, u := range mres.units {
			for _, b := range u.partBytes {
				shufByNode[mres.node] += b
			}
		}
	}
	// Combine folds count in group order, like the engine's fold order.
	var savedPhys int64
	for _, cr := range combRes {
		c.Add(cr.store.Counters())
		mapCPU += cr.ledger
		rep.NodeCombineInputRecords += cr.inPairs
		rep.NodeCombineOutputRecords += cr.outPairs
		savedPhys += cr.deposited - cr.published
		rep.IORetries += cr.store.IORetries()
		rep.CorruptFramesDetected += cr.store.CorruptFramesDetected()
		rep.Spans = append(rep.Spans, cr.spans...)
		for _, b := range cr.unit.partBytes {
			shufByNode[cr.node] += b
		}
	}
	rep.ShuffleBytesSaved = m.LogicalBytes(savedPhys)
	var shufTotal int64
	for _, b := range shufByNode {
		shufTotal += b
	}
	if shufTotal > 0 {
		rep.ShuffleBytesByNode = make([]int64, len(shufByNode))
		for i, b := range shufByNode {
			rep.ShuffleBytesByNode[i] = m.LogicalBytes(b)
		}
	}
	for _, mres := range mapExtra {
		c.Add(mres.store.Counters())
		rep.IORetries += mres.store.IORetries()
		rep.CorruptFramesDetected += mres.store.CorruptFramesDetected()
		rep.Spans = append(rep.Spans, mres.span)
	}
	for _, rres := range redDone {
		c.Add(rres.store.Counters())
		reduceCPU += rres.ledger
		rep.OutputRecords += rres.outRecords
		rep.ApproxKeys += rres.approxKeys
		rep.IORetries += rres.store.IORetries()
		rep.CorruptFramesDetected += rres.store.CorruptFramesDetected()
		rep.Outputs = append(rep.Outputs, rres.outputs...)
		rep.Spans = append(rep.Spans, rres.span)
	}
	for _, rres := range redExtra {
		c.Add(rres.store.Counters())
		rep.IORetries += rres.store.IORetries()
		rep.CorruptFramesDetected += rres.store.CorruptFramesDetected()
		rep.Spans = append(rep.Spans, rres.span)
	}
	rep.MapCPUPerNode = time.Duration(mapCPU / nodes)
	rep.ReduceCPUPerNode = time.Duration(reduceCPU / nodes)
	rep.InputBytes = m.LogicalBytes(c.ReadBytes[storage.MapInput])
	rep.MapSpillBytes = m.LogicalBytes(c.WrittenBytes[storage.MapSpill])
	rep.MapOutputBytes = m.LogicalBytes(c.WrittenBytes[storage.MapOutput])
	rep.ReduceSpillBytes = m.LogicalBytes(c.WrittenBytes[storage.ReduceSpill])
	rep.OutputBytes = m.LogicalBytes(c.WrittenBytes[storage.ReduceOutput])
	rep.TotalIOBytes = m.LogicalBytes(c.TotalBytes())
	rep.TotalIORequests = c.TotalReqs()
	rep.MemShuffleFetches = r.memFetches.Load()
	rep.SnapshotRecords = r.snapshotRecords.Load()
	rep.NodesLost = r.nodesLost
	rep.ReExecutedMapTasks = r.reexecMaps
	rep.RestartedReduceTasks = int(r.restartedReduces.Load())
	rep.SpeculativeBackups = int(r.specBackups.Load())
	rep.SpeculativeWins = int(r.specWins.Load())
	rep.FetchRetries = r.fetchRetries.Load()
	rep.WastedCPUPerNode = time.Duration(r.wastedCPU.Load() / nodes)
	rep.Checkpoints = r.checkpoints.Load()
	rep.CheckpointBytes = m.LogicalBytes(c.WrittenBytes[storage.Checkpoint])
	rep.RecoveryReadBytes = m.LogicalBytes(c.ReadBytes[storage.Checkpoint] + r.refetchBytes.Load())
	for i := 0; i < int(storage.NumIOClasses); i++ {
		rep.ChecksumOverheadByClass[i] = m.LogicalBytes(c.OverheadBytes[i])
		rep.ChecksumOverheadBytes += rep.ChecksumOverheadByClass[i]
	}
	rep.RunningTime = time.Since(r.start)
	rep.WallTime = rep.RunningTime
	rep.Workers = workers
	return rep
}
