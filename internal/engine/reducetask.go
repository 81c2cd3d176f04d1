package engine

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/storage"
)

// Shuffle-fetch retry backoff against a crashed-but-undeclared node:
// capped exponential, in virtual time.
const (
	fetchRetryBase = 500 * time.Millisecond
	fetchRetryCap  = 8 * time.Second
)

// reduceResult is the outcome of one reduce attempt.
type reduceResult int

const (
	reduceDone           reduceResult = iota
	reduceFailedInjected              // injected failure; retry on the same node
	reduceNodeDead                    // the node crashed mid-attempt
)

// runReduceTask executes one reduce task. Clean runs (and HOP, whose
// pipelining is incompatible with re-execution) take the legacy
// single-attempt path; fault-injected runs run an attempt loop that
// survives injected failures and node crashes, restoring checkpointed
// state where available.
func (j *job) runReduceTask(p *sim.Proc, ridx int, n *node) {
	if j.tracker == nil || j.spec.Platform == HOP {
		j.runReduceLegacy(p, ridx, n)
		return
	}
	t := j.tracker
	rs := t.rstates[ridx]
	rs.node = n
	failures := j.spec.Faults.ReduceFailures[ridx]
	for {
		attempt := rs.attempts
		rs.attempts++
		if attempt >= MaxReduceAttempts {
			panic(fmt.Sprintf("engine: reduce task %d failed %d attempts (unrecoverable fault plan?)",
				ridx, attempt))
		}
		if attempt > 0 {
			j.restartedReduces++
		}
		inject := attempt < failures
		switch j.runReduceAttempt(p, rs, attempt, inject) {
		case reduceDone:
			rs.done = true
			return
		case reduceFailedInjected:
			// Retry on the same node, as the JobTracker would.
		case reduceNodeDead:
			dead := rs.node
			p.WaitFor(t.cond, func() bool { return dead.declaredDead })
			rs.node = t.pickNode(p.Now())
		}
	}
}

// runReduceAttempt is one attempt of a reduce task under fault
// injection: restore checkpointed state, fetch every map task's
// partition exactly once (retrying fetches from crashed nodes with
// backoff, skipping lost outputs until their re-execution republishes),
// and finish. inject fails the attempt after FailPoint of its inputs.
func (j *job) runReduceAttempt(p *sim.Proc, rs *reduceState, attempt int, inject bool) (res reduceResult) {
	n := rs.node
	t := j.tracker
	model := j.spec.Cluster.Model
	ridx := rs.ridx

	// Resolve the checkpoint chain first: a torn or bit-flipped latest
	// image must not contribute its consumed-set — the attempt restarts
	// from the newest image that still verifies (or from scratch).
	img, badCkptBytes := j.resolveCheckpoint(rs)

	// Reset the consumed-set from the last good checkpoint before
	// anything parks: the tracker reads it to decide which lost outputs
	// are still needed, and to re-request any this attempt must re-fetch.
	rs.consumed = make([]bool, j.totalMaps)
	rs.consumedN = 0
	if ck := rs.ckpt; ck != nil {
		copy(rs.consumed, ck.Consumed)
		rs.consumedN = ck.ConsumedN
	}
	t.ensureAvailable(rs)

	p.Acquire(n.reduceSlots, 1)
	defer p.Release(n.reduceSlots, 1)
	start := p.Now()
	kind := "reduce"
	defer func() { j.addSpan(fmt.Sprintf("%s.a%d", p.Name(), attempt), kind, n.idx, start, p.Now()) }()

	setPhase := j.phaseSetter()
	defer setPhase(-1)

	var ledger int64
	var out *OutputWriter
	defer func() {
		if r := recover(); r != nil {
			switch r.(type) {
			case nodeAborted:
				kind = "reduce-lost"
				j.wastedCPU += ledger
				res = reduceNodeDead
			case *storage.Corruption:
				// A spill/bucket/checkpoint-source frame failed its
				// checksum, or a transient-I/O retry budget ran out: the
				// attempt's scratch state is untrustworthy. Discard it
				// and restart from the last good checkpoint.
				kind = "reduce-corrupt"
				j.wastedCPU += ledger
				out.Discard()
				res = reduceFailedInjected
			default:
				panic(r)
			}
		}
	}()

	out = NewOutputWriter(&j.spec, j.spec.Faults.risky() || j.spec.Faults.Disk.any(), &j.out, n.enqueueOutput)
	red := NewTaskReducer(&j.spec, j.newRuntime(p, n, &ledger), j.spec.Query, out,
		fmt.Sprintf("r%03d.a%d", ridx, attempt), j.inputBytesEst)

	// Resume from the last good checkpoint: read the replicated image
	// back (table/sketch + consumed-set + all bucket bytes) and rebuild
	// the reducer, then replay only the unconsumed suffix. Damaged
	// images the resolver discarded were still read before their frame
	// failed verification — charge those bytes too.
	if badCkptBytes > 0 || img != nil {
		setPhase(metrics.PhaseRecover)
		if badCkptBytes > 0 {
			n.store.ChargeCheckpointRead(p, badCkptBytes)
		}
		if img != nil {
			// The restored state pairs with the output staged up to the
			// same image; anything staged later replays.
			red.Restore(rs.ckpt, img)
		}
		setPhase(-1)
	}
	ckptEvery := int64(j.spec.CheckpointEvery)
	lastCkpt := p.Now()

	failN := j.spec.Faults.ReduceFailAfter(j.totalMaps)
	failNow := func() bool { return inject && rs.consumedN >= failN }
	failOut := func() reduceResult {
		kind = "reduce-failed"
		j.wastedCPU += ledger
		out.Discard()
		return reduceFailedInjected
	}
	if failNow() {
		return failOut()
	}

	// Shuffle loop: fetch each map task's partition exactly once, in
	// publication order, skipping lost outputs (their re-execution will
	// republish) and backing off on fetches from crashed-but-undeclared
	// nodes.
	setPhase(metrics.PhaseShuffle)
	var retry int64
	for rs.consumedN < j.totalMaps {
		if n.dead(p.Now()) {
			panic(nodeAborted{n.idx})
		}
		var o *mapOutput
		p.WaitFor(j.shuffle.cond, func() bool {
			if n.dead(p.Now()) {
				return true
			}
			o = nil
			for _, cand := range j.shuffle.outputs {
				if cand.lost || (cand.tasks == nil && cand.task < 0) {
					continue
				}
				// A node-combined run covers several tasks, marked
				// atomically below — its first covered task stands in
				// for the whole set.
				if rs.consumed[outputTask(cand)] {
					continue
				}
				o = cand
				return true
			}
			return false
		})
		if n.dead(p.Now()) || o == nil {
			panic(nodeAborted{n.idx})
		}
		if o.node.dead(p.Now()) {
			// Fetch failure: the serving node crashed but the detector
			// has not declared it yet. Retry with capped exponential
			// backoff; once declared, the output is marked lost and the
			// task re-executes on a survivor.
			j.fetchRetries++
			if retry == 0 {
				retry = int64(fetchRetryBase)
			} else if retry *= 2; retry > int64(fetchRetryCap) {
				retry = int64(fetchRetryCap)
			}
			p.Hold(time.Duration(retry))
			continue
		}
		retry = 0

		size := o.partBytes[ridx]
		if size > 0 {
			p.Use(n.nic, 1, model.NetTime(size))
			if o.inMemory {
				j.memFetches++
			} else {
				j.diskFetches++
				if _, err := o.node.store.ReadAtChecked(p, o.file, o.partOff[ridx], size, storage.ShuffleRead); err != nil {
					// The partition's frame failed its checksum. Re-fetch
					// once (the real protocol's first response to a bad
					// payload); the mapper's disk serves the same damaged
					// frame, so give the output up as corrupt — the
					// tracker re-executes the map task and the fresh
					// publication serves this reducer.
					j.fetchRetries++
					j.refetchBytes += size
					p.Use(n.nic, 1, model.NetTime(size))
					if _, err = o.node.store.ReadAtChecked(p, o.file, o.partOff[ridx], size, storage.ShuffleRead); err != nil {
						t.corruptOutput(o)
						continue
					}
				}
			}
			if rs.everFetched == nil {
				rs.everFetched = make([]bool, j.totalMaps)
			}
			if rs.everFetched[outputTask(o)] {
				j.refetchBytes += size // recovery traffic: fetched before, by a lost attempt
			} else {
				rs.everFetched[outputTask(o)] = true
			}
			red.Feed(o.parts, ridx, size, o.task)
		}
		if o.tasks != nil {
			for _, task := range o.tasks {
				rs.consumed[task] = true
			}
			rs.consumedN += len(o.tasks)
		} else {
			rs.consumed[o.task] = true
			rs.consumedN++
		}
		j.fetchesDone++
		j.shuffle.release(o)

		if failNow() {
			return failOut()
		}
		if red.Incremental() && ckptEvery > 0 && p.Now()-lastCkpt >= ckptEvery {
			j.takeCheckpoint(p, rs, n, red)
			lastCkpt = p.Now()
		}

		for frac := j.mapProgress(); red.SnapshotDue(frac); {
			setPhase(metrics.PhaseMerge)
			red.Snapshot(j.snapshotWriter(n))
			setPhase(metrics.PhaseShuffle)
		}
		if red.MergeDue() {
			setPhase(metrics.PhaseMerge)
			red.Merge()
			setPhase(metrics.PhaseShuffle)
		}
	}
	setPhase(-1)

	// All map output received: complete the task.
	j.finishReducer(red, setPhase)
	out.Commit()
	out.Flush()
	n.syncOutput(p)
	j.reduceCPU += ledger
	return reduceDone
}

// outputTask is the consumed-set index an output is tracked under: its
// map task, or a node-combined run's first covered task (the whole set
// is marked together, so one representative suffices).
func outputTask(o *mapOutput) int {
	if o.tasks != nil {
		return o.tasks[0]
	}
	return o.task
}

// takeCheckpoint commits a checkpoint of the attempt's reducer state
// and consumed-set and chains it onto the task. The previous image is
// kept as a fallback; under fault injection the freshly written frame
// may be bit-flipped here — detected by restore, exactly like bit rot on
// the replicated copy.
func (j *job) takeCheckpoint(p *sim.Proc, rs *reduceState, n *node, red *TaskReducer) {
	ck := red.TakeCheckpoint(rs.ckpt, rs.consumed, rs.consumedN)
	if d := &j.spec.Faults.Disk; d.CorruptRate > 0 && d.targetsNode(n.idx) &&
		d.classMask()[storage.Checkpoint] && d.windowNS(p.Now()) {
		j.ckptSeq++
		if storage.Roll(d.CorruptRate, d.Seed, int64(n.idx), j.ckptSeq, 4) {
			bit := storage.Hash64(d.Seed, int64(n.idx), j.ckptSeq, 5) % uint64(len(ck.framed)*8)
			ck.framed[bit/8] ^= 1 << (bit % 8)
		}
	}
	// Keep one fallback level: the latest image plus its predecessor.
	ck.prev = rs.ckpt
	if ck.prev != nil {
		ck.prev.prev = nil
	}
	rs.ckpt = ck
	j.checkpoints++
}

// resolveCheckpoint walks a reduce task's checkpoint chain newest
// first, discards images whose frame no longer verifies (bit-flipped
// at write time, or torn when their node died mid-replication), and
// leaves rs.ckpt at the newest good image — nil means full replay.
// It returns the decoded state image and the stored bytes of the
// damaged images that were tried (the restore charges reading them:
// the damage is only discovered after the bytes come back).
func (j *job) resolveCheckpoint(rs *reduceState) (img *core.StateImage, badBytes int64) {
	for rs.ckpt != nil {
		ck := rs.ckpt
		if img, err := ck.Decode(); err == nil {
			return img, badBytes
		}
		badBytes += ck.StoredBytes()
		if ck.torn {
			j.tornRepaired++
		} else {
			j.ckptCorrupt++
		}
		rs.ckpt = ck.prev
	}
	return nil, badBytes
}

// runReduceLegacy is the clean-run reduce path: acquire a slot
// (creating the §3.2 waves when R exceeds slots), shuffle from
// completed mappers, feed the platform reducer, and finish once all
// map output arrived.
func (j *job) runReduceLegacy(p *sim.Proc, ridx int, n *node) {
	p.Acquire(n.reduceSlots, 1)
	defer p.Release(n.reduceSlots, 1)
	start := p.Now()
	defer func() { j.addSpan(p.Name(), "reduce", n.idx, start, p.Now()) }()

	model := j.spec.Cluster.Model
	out := NewOutputWriter(&j.spec, false, &j.out, n.enqueueOutput)
	defer func() {
		out.Flush()
		n.syncOutput(p)
	}()
	red := NewTaskReducer(&j.spec, j.newRuntime(p, n, &j.reduceCPU), j.spec.Query, out,
		fmt.Sprintf("r%03d", ridx), j.inputBytesEst)

	// Shuffle loop: fetch each published output's partition for ridx.
	// The task counts as a shuffle task for the whole phase (the
	// Fig 2(a) timeline semantics), switching to the merge gauge while
	// it drives multi-pass merges.
	setPhase := j.phaseSetter()
	setPhase(metrics.PhaseShuffle)
	for next := 0; ; next++ {
		o, ok := j.shuffle.next(p, next)
		if !ok {
			break
		}
		if size := o.partBytes[ridx]; size > 0 {
			// Network transfer into this reducer's node.
			p.Use(n.nic, 1, model.NetTime(size))
			if o.inMemory {
				j.memFetches++
			} else {
				// The mapper's output left its memory: serve from disk.
				j.diskFetches++
				o.node.store.ReadAt(p, o.file, o.partOff[ridx], size, storage.ShuffleRead)
			}
			red.Feed(o.parts, ridx, size, o.task)
		}
		j.fetchesDone++
		j.shuffle.release(o)

		// HOP snapshots: when the map progress crosses the next
		// threshold, re-merge everything received so far and emit an
		// approximate answer set (§3.3(4)). The task stays a shuffle
		// task meanwhile.
		for frac := j.mapProgress(); red.SnapshotDue(frac); {
			j.gauges.Enter(metrics.PhaseMerge)
			red.Snapshot(j.snapshotWriter(n))
			j.gauges.Leave(metrics.PhaseMerge)
		}

		// Sort-merge: drive the background multi-pass merge when the
		// trigger fires (inline, in Fig 2(a)'s "merge" phase).
		if red.MergeDue() {
			setPhase(metrics.PhaseMerge)
			red.Merge()
			setPhase(metrics.PhaseShuffle)
		}
	}
	setPhase(-1)

	// All map output received: complete the job.
	j.finishReducer(red, setPhase)
}

// phaseSetter returns a function that moves one reduce task between
// the Fig 2(a) phase gauges: it leaves the phase set last and enters ph
// (-1: none).
func (j *job) phaseSetter() func(ph metrics.Phase) {
	cur := metrics.Phase(-1)
	return func(ph metrics.Phase) {
		if cur >= 0 {
			j.gauges.Leave(cur)
		}
		cur = ph
		if ph >= 0 {
			j.gauges.Enter(ph)
		}
	}
}

// finishReducer completes a reduce task once all map output arrived:
// sort-merge's remaining multi-pass merge is blocking I/O (PhaseMerge);
// the final merge + reduce function, or the hash platforms' bucket
// passes, are PhaseReduce.
func (j *job) finishReducer(red *TaskReducer, setPhase func(metrics.Phase)) {
	setPhase(metrics.PhaseMerge)
	red.PrepareFinal()
	setPhase(metrics.PhaseReduce)
	j.approxKeys += red.Finish()
	setPhase(-1)
}

// mapProgress is the completed fraction of the map phase.
func (j *job) mapProgress() float64 { return float64(j.mapsDone) / float64(j.totalMaps) }

// snapshotWriter sinks one approximate snapshot on node n.
func (j *job) snapshotWriter(n *node) *SnapshotWriter {
	return &SnapshotWriter{Sink: n.enqueueOutput, Records: &j.snapshotRecords}
}
