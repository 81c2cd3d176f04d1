package engine

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/mr"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/substrate"
)

// mapResult is the outcome of one map attempt.
type mapResult int

const (
	mapDone           mapResult = iota // published (or superseded-free success)
	mapFailedInjected                  // injected failure; retry on the same node
	mapNodeDead                        // the node crashed mid-attempt
	mapSuperseded                      // another attempt won while this one ran
)

// runMapTask executes one map task: hold a slot, pay startup, read
// the chunk in segments (charging input I/O and CPU), feed records
// through the map function into the platform's collector, write the
// map output for fault tolerance, and publish it for shuffling.
// Injected failures re-execute the whole attempt, as the JobTracker
// would after a lost task; a node crash re-executes it on a survivor
// once the failure detector declares the node dead. backup marks a
// speculative attempt racing a straggling primary; held marks a primary
// started by its slot's grant, whose attempt 0 the tracker opened.
func (j *job) runMapTask(p *sim.Proc, chunk int, n *node, backup, held bool) {
	failures := j.spec.Faults.MapFailures[chunk]
	t := j.tracker
	ms := &t.mstates[chunk]
	attempt := 0
	for ; ; held = false {
		if !held {
			if ms.done {
				return // won by a backup / re-execution before we started
			}
			attempt = ms.attempts
			ms.attempts++
			ms.running++
			p.Acquire(n.mapSlots, 1)
		}
		res, dur := j.runMapAttempt(p, chunk, n, attempt, attempt < failures, backup)
		ms.running--
		switch res {
		case mapDone:
			t.mapDurs = append(t.mapDurs, dur)
			if backup {
				j.specWins++
			}
			return
		case mapSuperseded:
			return
		case mapNodeDead:
			// Wait out the failure detector, then continue on a live
			// node (backups included: the primary may have returned
			// superseded against this attempt's aborted claim).
			dead := n
			p.WaitFor(t.cond, func() bool { return dead.declaredDead })
			if ms.done {
				return
			}
			n = j.nodes[j.Place(chunk, -1)]
		}
	}
}

// runMapAttempt executes one attempt; fail=true makes it abort after
// FailPoint of the work, discarding everything.
//
// Real compute (chunk generation, parsing, the map function) runs on
// the kernel's worker pool: the chunk is generated while the task pays
// its virtual startup cost, and each read segment's map work is forked
// ahead within a bounded window while earlier segments' virtual I/O
// and CPU are charged. Results are consumed strictly in segment order
// and the collector and watermark are only touched on the process
// goroutine, so event order and all outputs are identical for any
// worker count.
func (j *job) runMapAttempt(p *sim.Proc, chunk int, n *node, attempt int, fail, backup bool) (res mapResult, dur int64) {
	defer p.Release(n.mapSlots, 1) // acquired by runMapTask
	var ledger int64
	body := NewMapBody(j.spec, j.newRuntime(p, n, &ledger), j.spec.Query, chunk, attempt,
		func(name string, _ int, out core.MapParts) {
			j.publishMapOutput(p, n, name, -1, nil, out)
		})
	// Once the forked compute has drained, the chunk goes back to the
	// pool, and so do segments mapped ahead but never replayed (injected
	// failure, superseded attempt, node abort).
	var outs []SegMapResult
	defer func() {
		for i := range outs {
			outs[i].Release()
		}
		body.Release()
	}()
	defer p.Join() // drain forked compute on every exit path
	start := p.Now()
	ms := &j.tracker.mstates[chunk]
	if !backup {
		ms.since = start
	}
	kind := "map"
	if fail {
		kind = "map-failed"
	}
	// lose ends the attempt as r, its work wasted; why names its span.
	lose := func(why string, r mapResult) (mapResult, int64) {
		kind = why
		j.sums.WastedCPU += ledger
		return r, 0
	}
	defer func() { j.addSpan(fmt.Sprintf("%s#%d", p.Name(), attempt), kind, n.idx, start, p.Now()) }()
	j.gauges.Enter(metrics.PhaseMap)
	defer j.gauges.Leave(metrics.PhaseMap)

	// A crashed node aborts the attempt from inside any CPU charge, and
	// a checksum failure (or exhausted transient-I/O retry budget) on
	// the attempt's own spill files aborts it for a clean re-run; the
	// panics must not escape into the kernel.
	defer func() {
		if r := recover(); r != nil {
			switch r.(type) {
			case nodeAborted:
				res, dur = lose("map-lost", mapNodeDead)
			case *storage.Corruption:
				res, dur = lose("map-corrupt", mapFailedInjected)
			default:
				panic(r)
			}
		}
	}()

	model := j.spec.Cluster.Model

	// Generate (or "read") the chunk on the pool while the startup
	// overhead elapses in virtual time.
	var segs [][]byte
	gen := p.Fork(func() { segs = body.Segments(j.spec.Input.ChunkBytes(chunk)) })
	p.Hold(model.MapStartup + model.TaskOverhead)
	gen.Wait()

	failAt := int64(-1)
	if fail {
		failAt = j.spec.Faults.MapFailAt(len(body.input))
	}

	hop := j.spec.Platform == HOP
	var observe func(ts int64)
	if wm, ok := j.spec.Query.(mr.Watermarker); ok {
		observe = wm.AdvanceWatermark
	}

	// Fork map compute with bounded look-ahead: enough in flight to
	// keep the pool busy across this task's parks, without holding
	// every segment's output in memory at once.
	outs = make([]SegMapResult, len(segs))
	futs := make([]*sim.Future, len(segs))
	window := 2 * j.k.Workers()
	nextFork := 0
	forkUpTo := func(limit int) {
		for ; nextFork < len(segs) && nextFork < limit; nextFork++ {
			i := nextFork
			futs[i] = p.Fork(func() { body.MapSegment(segs[i], &outs[i]) })
		}
	}

	var end int64
	for i, seg := range segs {
		forkUpTo(i + window)
		n.store.Charge(p, storage.MapInput, int64(len(seg)), false)
		futs[i].Wait()
		// Replay in record order, advancing the watermark exactly where
		// the serial engine would (just before each record's emissions).
		body.Replay(&outs[i], observe)
		end += int64(len(seg))
		if failAt >= 0 && end >= failAt {
			// The attempt dies here: work and output are lost; the
			// JobTracker reschedules the task. The deferred Join
			// drains segments still in flight.
			return lose(kind, mapFailedInjected)
		}
		if ms.done {
			// Another attempt (speculative backup or primary) already
			// published this task's output: stop, drop everything.
			return lose("map-superseded", mapSuperseded)
		}
	}

	parts, mapped, emitted := body.Finish()
	quarantined := body.Quarantined
	if ms.done {
		return lose("map-superseded", mapSuperseded)
	}
	j.mapInputRecords += mapped
	j.mapOutputRecords += emitted
	j.quarantined += quarantined
	if j.combine.Deposits(chunk) {
		// Node-combine: the output parks at the node's combiner instead
		// of entering the shuffle; the node's last deposit triggers the
		// fold, and the merged run publishes for every covered task (the
		// shuffle's completion count is released there, not here). A kept
		// chunk races no backup on a node that never dies (JobFrame.Keep),
		// so there is no claim race and no declared-dead rollback to handle.
		ms.done = true
		j.sums.MapCPU += ledger
		j.countMapDone(chunk, p.Now())
		j.deposit(chunk, n, parts.Segs)
		return mapDone, p.Now() - start
	}
	if !hop {
		// Claim the task before the publish I/O parks, so a racing
		// backup cannot double-publish.
		ms.done = true
		o := j.publishMapOutput(p, n, fmt.Sprintf("map%06d.a%d.out", chunk, attempt), chunk, nil, parts)
		if n.declaredDead {
			// The node was declared dead while we were publishing: the
			// output is on a dead machine and the detector has already
			// swept it. Undo the claim and re-execute.
			o.lost = true
			ms.done = false
			ms.output = nil
			j.mapInputRecords -= mapped
			j.mapOutputRecords -= emitted
			j.quarantined -= quarantined
			return lose("map-lost", mapNodeDead)
		}
		ms.output = o
	}
	j.sums.MapCPU += ledger
	j.countMapDone(chunk, p.Now())
	j.shuffle.mapperFinished()
	return mapDone, p.Now() - start
}

// countMapDone records chunk's completed map task at virtual time now:
// the last completion finishes the map phase and ends disk-damage
// injection (the map barrier), and a node in Faults.KillAtMapProgress
// crashes at the first instant chunks 0…K-1 (JobFrame.KillAfter) have
// all completed once — by then it has published exactly its Lost chunks.
func (j *job) countMapDone(chunk int, now int64) {
	j.mapsDone++
	if j.mapsDone == j.TotalMaps {
		j.mapFinish = now
		for _, n := range j.nodes {
			n.store.SetFaults(nil)
		}
	}
	ms := j.tracker.mstates
	ms[chunk].completed = true
	for j.mapPrefix < j.TotalMaps && ms[j.mapPrefix].completed {
		j.mapPrefix++
	}
	for idx, k := range j.KillAfter {
		if n := j.nodes[idx]; n.deadAt < 0 && j.mapPrefix >= k {
			n.deadAt = now
		}
	}
}

// publishMapOutput writes the per-partition segments to the node's
// disk (U3, for fault tolerance) and registers the output with the
// shuffle service. task is the map task index (-1 for HOP spill
// pushes, which are never re-executed, and for node-combined runs,
// which instead carry the covered task set in tasks).
func (j *job) publishMapOutput(p substrate.Proc, n *node, name string, task int, tasks []int, parts core.MapParts) *mapOutput {
	o := &mapOutput{node: n, task: task, tasks: tasks, parts: parts}
	o.file, o.partBytes, o.partOff = WriteMapOutput(p, n.store, name, parts)
	for _, b := range o.partBytes {
		j.sums.ShuffleByNode[n.idx] += b
	}
	n.cacheAdd(o)
	j.shuffle.publish(o)
	return o
}
