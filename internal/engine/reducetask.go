package engine

import (
	"fmt"
	"time"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/storage"
)

// Shuffle-fetch retry backoff against a crashed-but-undeclared node or
// a transient shuffle error: capped exponential, in virtual time.
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

// runReduceTask executes one reduce task as an attempt chain: a
// fault-free task is the chain that succeeds at attempt 0; injected
// failures and node crashes start further attempts, restoring
// checkpointed state where available.
func (j *job) runReduceTask(p *sim.Proc, ridx int, n *node) {
	t := j.tracker
	rs := &t.rstates[ridx]
	rs.node = n
	for {
		attempt, inject, err := rs.Next(j.spec.Faults.ReduceFailures[ridx], j.Dies(rs.node.idx))
		if err != nil {
			panic(fmt.Sprintf("engine: reduce task %d %v", ridx, err))
		}
		if attempt > 0 {
			j.restartedReduces++
		}
		switch j.runReduceAttempt(p, rs, attempt, inject) {
		case reduceDone:
			rs.done = true
			return
		case reduceFailedInjected:
			// Retry on the same node, as the JobTracker would.
		case reduceNodeDead:
			dead := rs.node
			p.WaitFor(t.cond, func() bool { return dead.declaredDead })
			rs.node = j.nodes[j.Place(ridx, -1)]
		}
	}
}

// runReduceAttempt is one attempt of a reduce task: acquire a slot
// (creating the §3.2 waves when R exceeds slots), resume from the newest
// good checkpoint, fetch every map task's partition exactly once
// (retrying fetches from crashed nodes with backoff, skipping lost
// outputs until their re-execution republishes), and finish. inject
// fails the attempt at its fail point (TaskReducer.Failed).
//
// HOP rides the same loop as a chain of length one: its pushes carry no
// task identity, so nothing is marked consumed and the stream ends when
// every mapper has finished; and because a pipelined push cannot be
// re-consumed, a failure that would restart any other platform's
// attempt stays Run's error.
func (j *job) runReduceAttempt(p *sim.Proc, rs *reduceState, attempt int, inject bool) (res reduceResult) {
	n := rs.node
	t := j.tracker
	model := j.spec.Cluster.Model
	ridx := rs.ridx

	// Resume first: the tracker reads the reset consumed set to decide
	// which lost outputs are still needed, and re-requests them.
	img, badCkptBytes, torn, corrupt := rs.Resume(j.TotalMaps)
	j.tornRepaired += int64(torn)
	j.ckptCorrupt += int64(corrupt)
	t.ensureAvailable(rs)

	p.Acquire(n.reduceSlots, 1)
	defer p.Release(n.reduceSlots, 1)
	start := p.Now()
	kind := "reduce"
	// Attempt 0 is named by the task; retries carry their attempt number.
	name := p.Name()
	if attempt > 0 {
		name = fmt.Sprintf("%s.a%d", name, attempt)
	}
	defer func() { j.addSpan(name, kind, n.idx, start, p.Now()) }()

	setPhase := j.phaseSetter()
	defer setPhase(-1)

	var ledger int64
	defer func() {
		if r := recover(); r != nil {
			switch r.(type) {
			case nodeAborted:
				kind = "reduce-lost"
				j.sums.WastedCPU += ledger
				res = reduceNodeDead
			case *storage.Corruption:
				if j.spec.Platform == HOP {
					panic(r)
				}
				// A spill/bucket/checkpoint-source frame failed its
				// checksum, or a transient-I/O retry budget ran out: the
				// attempt's scratch state is untrustworthy. Discard it
				// and restart from the last good checkpoint.
				kind = "reduce-corrupt"
				j.sums.WastedCPU += ledger
				res = reduceFailedInjected
			default:
				panic(r)
			}
		}
	}()

	// Reading checkpoint images back is recovery.
	if badCkptBytes > 0 || img != nil {
		setPhase(metrics.PhaseRecover)
	}
	red := rs.Attempt(j.spec, j.newRuntime(p, n, &ledger), j.spec.Query, ridx, attempt, inject,
		&j.out, n.enqueueOutput, j.InputBytesEst, img, badCkptBytes, p.Now)
	setPhase(-1)

	failOut := func() reduceResult {
		kind = "reduce-failed"
		j.sums.WastedCPU += ledger
		return reduceFailedInjected
	}
	if red.Failed() {
		return failOut()
	}

	// Shuffle loop: fetch each map task's partition exactly once, in
	// publication order, skipping lost outputs (their re-execution will
	// republish) and backing off on fetches from crashed-but-undeclared
	// nodes and on rolled transient errors. The task counts as a shuffle
	// task for the whole phase (the Fig 2(a) timeline semantics),
	// switching to the merge gauge while it drives multi-pass merges.
	// next is the attempt's cursor into the published outputs: everything
	// before it is consumed or lost for good, so a wake-up never rescans.
	setPhase(metrics.PhaseShuffle)
	var retry int64
	tries := 0
	next := 0
	for rs.consumedN < j.TotalMaps {
		if n.dead(p.Now()) {
			panic(nodeAborted{n.idx})
		}
		var o *mapOutput
		p.WaitFor(j.shuffle.cond, func() bool {
			if n.dead(p.Now()) {
				return true
			}
			for outs := j.shuffle.outputs; next < len(outs); next++ {
				// A node-combined run covers several tasks, marked
				// atomically below — its first covered task stands in
				// for the whole set.
				if c := outs[next]; !c.lost && !rs.Holds(outputTask(c)) {
					o = c
					return true
				}
			}
			// HOP's stream is not counted in tasks: it ends once every
			// mapper has finished.
			return j.spec.Platform == HOP && j.shuffle.allPublished()
		})
		if n.dead(p.Now()) {
			panic(nodeAborted{n.idx})
		}
		if o == nil {
			break // HOP: every mapper finished and every push is consumed
		}
		if o.node.dead(p.Now()) || j.spec.ShuffleFetchFails(ridx, outputTask(o), 0, attempt, tries) {
			// Fetch failure: the serving node crashed but the detector
			// has not declared it yet, or a transient error was rolled.
			// Retry with capped exponential backoff; once a crashed node
			// is declared, its output is marked lost and the task
			// re-executes on a survivor.
			j.fetchRetries++
			tries++
			if retry == 0 {
				retry = int64(fetchRetryBase)
			} else if retry *= 2; retry > int64(fetchRetryCap) {
				retry = int64(fetchRetryCap)
			}
			p.Hold(time.Duration(retry))
			continue
		}
		retry, tries = 0, 0

		size := o.partBytes[ridx]
		if size > 0 {
			n.nic.Use(p, 1, model.NetTime(size))
			if o.inMemory {
				j.memFetches++
			} else {
				j.diskFetches++
				if err := o.node.store.ReadAtChecked(p, o.file, o.partOff[ridx], size, storage.ShuffleRead); err != nil {
					// The partition's frame failed its checksum. Re-fetch
					// once (the real protocol's first response to a bad
					// payload); the mapper's disk serves the same damaged
					// frame, so give the output up as corrupt — the
					// tracker re-executes the map task and the fresh
					// publication serves this reducer.
					j.fetchRetries++
					j.sums.RefetchBytes += size
					n.nic.Use(p, 1, model.NetTime(size))
					if err = o.node.store.ReadAtChecked(p, o.file, o.partOff[ridx], size, storage.ShuffleRead); err != nil {
						t.corruptOutput(o)
						continue
					}
				}
			}
		}
		j.sums.RefetchBytes += red.Consume(o.parts, ridx, size, outputTask(o), o.tasks)
		next++
		j.fetchesDone++
		j.shuffle.release(o)

		if red.Failed() {
			return failOut()
		}
		if red.CheckpointDue() {
			j.takeCheckpoint(n, red)
		}

		// Snapshots: when the map progress crosses the next threshold,
		// re-merge everything received so far and emit an approximate
		// answer set (§3.3(4)). The task stays a shuffle task meanwhile.
		for frac := j.mapProgress(); red.SnapshotDue(frac); {
			j.snapshot(red, n)
		}
		// Sort-merge: drive the background multi-pass merge when the
		// trigger fires (inline, in Fig 2(a)'s "merge" phase).
		if red.MergeDue() {
			setPhase(metrics.PhaseMerge)
			red.Merge()
			setPhase(metrics.PhaseShuffle)
		}
	}

	// All map output received: complete the task. Sort-merge's remaining
	// multi-pass merge is blocking I/O (PhaseMerge); the final merge +
	// reduce function, or the hash platforms' bucket passes, are
	// PhaseReduce.
	setPhase(metrics.PhaseMerge)
	red.PrepareFinal()
	setPhase(metrics.PhaseReduce)
	j.approxKeys += red.Finish()
	setPhase(-1)
	n.syncOutput(p)
	j.sums.ReduceCPU += ledger
	return reduceDone
}

// outputTask is the map task an output is tracked under: its own, a
// node-combined run's first covered one, or -1 for a HOP push.
func outputTask(o *mapOutput) int {
	if o.tasks != nil {
		return o.tasks[0]
	}
	return o.task
}

// snapshot emits one approximate snapshot under the merge gauge, also
// left when a node crash aborts the attempt mid-merge.
func (j *job) snapshot(red *TaskReducer, n *node) {
	j.gauges.Enter(metrics.PhaseMerge)
	defer j.gauges.Leave(metrics.PhaseMerge)
	red.Snapshot(&SnapshotWriter{Sink: n.enqueueOutput, Records: &j.snapshotRecords})
}

// takeCheckpoint commits a checkpoint of the attempt's reducer state.
// While the node's store injects disk damage (the map phase) the
// freshly written frame may be bit-flipped here — detected by restore,
// exactly like bit rot on the replicated copy.
func (j *job) takeCheckpoint(n *node, red *TaskReducer) {
	ck := red.Checkpoint()
	if fl := n.store.Faults(); fl != nil && fl.CorruptRate > 0 && fl.Classes[storage.Checkpoint] {
		j.ckptSeq++
		if storage.Roll(fl.CorruptRate, fl.Seed, int64(n.idx), j.ckptSeq, 4) {
			bit := storage.Hash64(fl.Seed, int64(n.idx), j.ckptSeq, 5) % uint64(len(ck.framed)*8)
			ck.framed[bit/8] ^= 1 << (bit % 8)
		}
	}
	j.checkpoints++
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

// mapProgress is the completed fraction of the map phase.
func (j *job) mapProgress() float64 { return float64(j.mapsDone) / float64(j.TotalMaps) }
