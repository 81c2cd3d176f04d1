package engine

import (
	"bytes"
	"fmt"

	"repro/internal/bytestore"
	"repro/internal/core"
	"repro/internal/kvenc"
	"repro/internal/metrics"
	"repro/internal/mr"
	"repro/internal/sim"
	"repro/internal/sortmerge"
	"repro/internal/storage"
	"repro/internal/substrate"
)

// collector abstracts the two map-output components (sort-merge's Map
// Output Buffer and the Hash-based Map Output).
type collector interface {
	Add(key, val []byte)
	Finish() (parts [][][]byte, mapped, emitted int64)
}

// mapResult is the outcome of one map attempt.
type mapResult int

const (
	mapDone           mapResult = iota // published (or superseded-free success)
	mapFailedInjected                  // injected failure; retry on the same node
	mapNodeDead                        // the node crashed mid-attempt
	mapSuperseded                      // another attempt won while this one ran
)

// runMapTask executes one map task: acquire a slot, pay startup, read
// the chunk in segments (charging input I/O and CPU), feed records
// through the map function into the platform's collector, write the
// map output for fault tolerance, and publish it for shuffling.
// Injected failures re-execute the whole attempt, as the JobTracker
// would after a lost task; a node crash re-executes it on a survivor
// once the failure detector declares the node dead. backup marks a
// speculative attempt racing a straggling primary.
func (j *job) runMapTask(p *sim.Proc, chunk int, n *node, backup bool) {
	failures := j.spec.Faults.MapFailures[chunk]
	t := j.tracker
	if t == nil {
		// Clean run (no faults configured): the legacy retry loop.
		for attempt := 0; ; attempt++ {
			if res, _ := j.runMapAttempt(p, chunk, n, attempt, attempt < failures, false); res == mapDone {
				return
			}
		}
	}
	ms := t.mstates[chunk]
	for {
		if ms.done {
			return // won by a backup / re-execution before we started
		}
		attempt := ms.attempts
		ms.attempts++
		inject := attempt < failures
		if !backup {
			ms.node = n
		}
		ms.running++
		res, dur := j.runMapAttempt(p, chunk, n, attempt, inject, backup)
		ms.running--
		switch res {
		case mapDone:
			t.mapDurs = append(t.mapDurs, dur)
			if backup {
				j.specWins++
			}
			return
		case mapFailedInjected:
			continue
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
			n = t.pickNode(p.Now())
		}
	}
}

// segMapResult is one segment's map output computed on the worker
// pool: the emitted pairs in emission order plus, for watermarked
// queries, per-record marks so the replay can advance the watermark
// at exactly the points the serial engine would.
type segMapResult struct {
	pairs       []byte    // kvenc stream of Map emissions, in order
	marks       []recMark // one per input record (watermarked queries only)
	records     int64
	pairsN      int64 // emitted pairs (collector Add calls) in the segment
	quarantined int64 // bad records skipped under the quarantine budget
}

// recMark locates one input record's contribution in a segMapResult.
type recMark struct {
	ts    int64 // mr.Watermarker.RecordTime of the record
	pairs int32 // emissions by this record
}

// mapSegment applies the map function to every record of one segment,
// accumulating emissions into out. It is pure: it reads only the
// segment (and the query, whose Map must be receiver-pure) and writes
// only out, so it is safe to run on the kernel's compute pool. With a
// quarantine budget set, a record whose Map panics is rolled back and
// counted instead of failing the job (budget enforcement happens on
// the process goroutine, where the per-task total is deterministic).
func (j *job) mapSegment(segment []byte, wm mr.Watermarker, out *segMapResult) {
	quarantine := j.spec.SkipBadRecords > 0
	emit := out.emit // one emitter per segment, not one closure per record
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
		out.records++
		if quarantine {
			j.quarantineRecord(line, wm, out, emit)
		} else {
			j.mapRecord(line, wm, out, emit)
		}
	}
}

// emit appends one Map emission to the segment's output.
func (out *segMapResult) emit(k, v []byte) {
	out.pairs = kvenc.AppendPair(out.pairs, k, v)
	out.pairsN++
}

// mapRecord feeds one input record through the map function (emit is
// out.emit), appending its emissions and, for watermarked queries, its
// record mark.
func (j *job) mapRecord(line []byte, wm mr.Watermarker, out *segMapResult, emit func(k, v []byte)) {
	before := out.pairsN
	j.spec.Query.Map(line, emit)
	if wm != nil {
		out.marks = append(out.marks, recMark{ts: wm.RecordTime(line), pairs: int32(out.pairsN - before)})
	}
}

// quarantineRecord is mapRecord under the bad-record quarantine
// (Hadoop's skip mode): a record whose Map (or RecordTime) panics is
// rolled back — emissions truncated, no watermark mark — and counted,
// so the replayed stream is exactly as if the record never existed.
func (j *job) quarantineRecord(line []byte, wm mr.Watermarker, out *segMapResult, emit func(k, v []byte)) {
	pairs, pairsN, marks := len(out.pairs), out.pairsN, len(out.marks)
	defer func() {
		if r := recover(); r != nil {
			out.pairs, out.pairsN = out.pairs[:pairs], pairsN
			out.marks = out.marks[:marks]
			out.quarantined++
		}
	}()
	j.mapRecord(line, wm, out, emit)
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
	p.Acquire(n.mapSlots, 1)
	defer p.Release(n.mapSlots, 1)
	defer p.Join() // drain forked compute on every exit path
	start := p.Now()
	if t := j.tracker; t != nil && !backup {
		t.mstates[chunk].since = start
	}
	kind := "map"
	if fail {
		kind = "map-failed"
	}
	defer func() { j.addSpan(fmt.Sprintf("%s#%d", p.Name(), attempt), kind, n.idx, start, p.Now()) }()
	j.gauges.Enter(metrics.PhaseMap)
	defer j.gauges.Leave(metrics.PhaseMap)

	// A crashed node aborts the attempt from inside any CPU charge, and
	// a checksum failure (or exhausted transient-I/O retry budget) on
	// the attempt's own spill files aborts it for a clean re-run; the
	// panics must not escape into the kernel.
	var ledger int64
	defer func() {
		if r := recover(); r != nil {
			switch r.(type) {
			case nodeAborted:
				kind = "map-lost"
				j.wastedCPU += ledger
				res, dur = mapNodeDead, 0
			case *storage.Corruption:
				kind = "map-corrupt"
				j.wastedCPU += ledger
				res, dur = mapFailedInjected, 0
			default:
				panic(r)
			}
		}
	}()

	cfg := &j.spec.Cluster
	model := cfg.Model

	// Generate (or "read") the chunk on the pool while the startup
	// overhead elapses in virtual time.
	var data []byte
	gen := p.Fork(func() { data = j.spec.Input.ChunkBytes(chunk) })
	p.Hold(model.MapStartup + model.TaskOverhead)
	gen.Wait()

	failAt := int64(-1)
	if fail {
		fp := j.spec.Faults.FailPoint
		if fp <= 0 || fp > 1 {
			fp = 1
		}
		failAt = int64(fp * float64(len(data)))
	}

	rt := j.newRuntime(p, n, &ledger)
	var coll collector
	var hop *hopCollector
	switch j.spec.Platform {
	case SortMerge:
		coll = sortmerge.NewMapCollector(rt, j.spec.Query, sortmerge.MapCollectorConfig{
			Prefix:      fmt.Sprintf("m%06d.a%d", chunk, attempt),
			Partitions:  j.numReducers,
			Buffer:      cfg.MapBuffer,
			MergeFactor: cfg.MergeFactor,
			ReadSegment: cfg.ReadSegment,
		})
	case HOP:
		hop = newHOPCollector(j, rt, n, chunk)
		coll = hop
	default:
		coll = core.NewHashMapCollector(rt, j.spec.Query, j.numReducers, cfg.MapBuffer,
			j.spec.Platform.Incremental())
	}

	hashCombining := false
	if hashColl, ok := coll.(*core.HashMapCollector); ok {
		hashCombining = hashColl.Combining()
	}
	wm, _ := j.spec.Query.(mr.Watermarker)

	// Split the chunk into read segments, extended to record
	// boundaries — each is one input I/O request plus one CPU burst
	// covering parsing, the map function, and the collector's
	// per-record work.
	seg := cfg.ReadSegment
	if seg <= 0 || seg > int64(len(data)) {
		seg = int64(len(data))
	}
	type segTask struct {
		off, end int64
		fut      *sim.Future
		out      segMapResult
	}
	var tasks []*segTask
	for off := int64(0); off < int64(len(data)); {
		end := off + seg
		if end >= int64(len(data)) {
			end = int64(len(data))
		} else {
			// Extend to the next record boundary.
			if nl := bytes.IndexByte(data[end:], '\n'); nl >= 0 {
				end += int64(nl) + 1
			} else {
				end = int64(len(data))
			}
		}
		tasks = append(tasks, &segTask{off: off, end: end})
		off = end
	}

	// Fork map compute with bounded look-ahead: enough in flight to
	// keep the pool busy across this task's parks, without holding
	// every segment's output in memory at once.
	window := 2 * p.Workers()
	nextFork := 0
	forkUpTo := func(limit int) {
		for ; nextFork < len(tasks) && nextFork < limit; nextFork++ {
			t := tasks[nextFork]
			segment := data[t.off:t.end]
			// Recycled emission buffer, handed back after the replay;
			// sized to the segment as map output is usually comparable.
			t.out.pairs = bytestore.Get(len(segment))
			t.fut = p.Fork(func() { j.mapSegment(segment, wm, &t.out) })
		}
	}

	var quarantined int64
	for i, t := range tasks {
		forkUpTo(i + window)
		n.store.ChargeInputRead(p, t.end-t.off)
		t.fut.Wait()

		quarantined += t.out.quarantined
		if q := j.spec.SkipBadRecords; q > 0 && quarantined > q {
			// Budget blown: too many poison records in one task means
			// the input (or the query) is broken, not unlucky — fail
			// the job loudly rather than silently dropping data.
			panic(fmt.Errorf("engine: map task %d quarantined %d records, over the %d budget", chunk, quarantined, q))
		}

		// Replay the segment's results into the collector in record
		// order, advancing the watermark exactly where the serial
		// engine would (just before each record's emissions).
		it := kvenc.NewIterator(t.out.pairs)
		if wm == nil {
			for {
				k, v, more := it.Next()
				if !more {
					break
				}
				coll.Add(k, v)
			}
		} else {
			for _, m := range t.out.marks {
				wm.AdvanceWatermark(m.ts)
				for e := int32(0); e < m.pairs; e++ {
					k, v, _ := it.Next()
					coll.Add(k, v)
				}
			}
		}
		if err := it.Err(); err != nil {
			// pairs never left memory, so this is an engine bug, not
			// disk damage — fail loudly.
			panic(fmt.Errorf("engine: corrupt segment replay in map task %d: %w", chunk, err))
		}

		cpu := model.CPUOps(model.CPUParseByte, t.end-t.off) +
			model.CPUOps(model.CPUMapRecord, t.out.records)
		switch {
		case j.spec.Platform == SortMerge || j.spec.Platform == HOP:
			// Sorting CPU is charged inside the collector at spill time.
		case hashCombining:
			// Per emitted pair, not per input record: the collector
			// touches its table once per Add call. Charging per record
			// billed a combine for records that emitted nothing and
			// missed the table work of multi-emission records.
			cpu += model.CPUOps(model.CPUHashInsert+model.CPUCombine, t.out.pairsN)
		default:
			cpu += model.CPUOps(model.CPUHashInsert, t.out.pairsN)
		}
		n.chargeCPU(p, cpu, &ledger)
		bytestore.Put(t.out.pairs) // replay copied every pair into the collector
		t.out = segMapResult{}
		if failAt >= 0 && t.end >= failAt {
			// The attempt dies here: work and output are lost; the
			// JobTracker reschedules the task. The deferred Join
			// drains segments still in flight.
			j.wastedCPU += ledger
			return mapFailedInjected, 0
		}
		if tr := j.tracker; tr != nil && tr.mstates[chunk].done {
			// Another attempt (speculative backup or primary) already
			// published this task's output: stop, drop everything.
			kind = "map-superseded"
			j.wastedCPU += ledger
			return mapSuperseded, 0
		}
	}

	parts, mapped, emitted := coll.Finish()
	if tr := j.tracker; tr != nil && tr.mstates[chunk].done {
		kind = "map-superseded"
		j.wastedCPU += ledger
		return mapSuperseded, 0
	}
	j.mapInputRecords += mapped
	j.mapOutputRecords += emitted
	j.quarantined += quarantined
	if j.combine != nil && hop == nil {
		// Node-combine: the output parks at the node's combiner instead
		// of entering the shuffle; the node's last deposit triggers the
		// fold, and the merged run publishes for every covered task (the
		// shuffle's completion count is released there, not here). Only
		// fault-free plans combine, so there is no claim race and no
		// declared-dead rollback to handle.
		if tr := j.tracker; tr != nil {
			tr.mstates[chunk].done = true
		}
		j.mapCPU += ledger
		j.mapsDone++
		if j.mapsDone == j.totalMaps {
			j.mapFinish = p.Now()
		}
		j.combine.deposit(chunk, n, parts, emitted)
		return mapDone, p.Now() - start
	}
	if hop == nil {
		if tr := j.tracker; tr != nil {
			// Claim the task before the publish I/O parks, so a racing
			// backup cannot double-publish.
			tr.mstates[chunk].done = true
		}
		o := j.publishMapOutput(p, n, fmt.Sprintf("map%06d.a%d.out", chunk, attempt), chunk, nil, parts, emitted)
		if tr := j.tracker; tr != nil {
			ms := tr.mstates[chunk]
			if n.declaredDead {
				// The node was declared dead while we were publishing:
				// the output is on a dead machine and the detector has
				// already swept it. Undo the claim and re-execute.
				o.lost = true
				ms.done = false
				ms.output = nil
				j.mapInputRecords -= mapped
				j.mapOutputRecords -= emitted
				j.quarantined -= quarantined
				kind = "map-lost"
				j.wastedCPU += ledger
				return mapNodeDead, 0
			}
			ms.output = o
		}
	}
	j.mapCPU += ledger

	j.mapsDone++
	if j.mapsDone == j.totalMaps {
		j.mapFinish = p.Now()
	}
	j.shuffle.mapperFinished()
	return mapDone, p.Now() - start
}

// publishMapOutput writes the per-partition segments to the node's
// disk (U3, for fault tolerance) and registers the output with the
// shuffle service. task is the map task index (-1 for HOP spill
// pushes, which are never re-executed, and for node-combined runs,
// which instead carry the covered task set in tasks).
func (j *job) publishMapOutput(p substrate.Proc, n *node, name string, task int, tasks []int, parts [][][]byte, records int64) *mapOutput {
	o := &mapOutput{
		node:      n,
		task:      task,
		tasks:     tasks,
		parts:     parts,
		partBytes: make([]int64, len(parts)),
		partOff:   make([]int64, len(parts)),
		records:   records,
	}
	var total int
	for _, segs := range parts {
		for _, s := range segs {
			total += len(s)
		}
	}
	all := bytestore.Get(total)
	for pi, segs := range parts {
		o.partOff[pi] = int64(len(all))
		for _, s := range segs {
			all = append(all, s...)
			o.partBytes[pi] += int64(len(s))
		}
	}
	o.file = n.store.Create(name, storage.MapOutput)
	if len(all) > 0 {
		// One write request, one checksum frame per partition region:
		// shuffle reads verify exactly the partition they fetch.
		n.store.AppendFrames(p, o.file, all, storage.MapOutput, o.partBytes)
	}
	bytestore.Put(all) // AppendFrames copied the bytes into the file
	for _, b := range o.partBytes {
		j.shuffleByNode[n.idx] += b
	}
	n.cacheAdd(o)
	j.shuffle.publish(o)
	return o
}

// hopCollector implements MapReduce Online-style pipelining (§2.2):
// map output is pushed to reducers eagerly, one sorted spill at a
// time, and no map-side multi-pass merge happens — the merge work is
// redistributed to the reducers, which is exactly the paper's
// characterization of HOP.
type hopCollector struct {
	j     *job
	rt    *core.Runtime
	n     *node
	chunk int
	comb  mr.Combiner
	h1    interface {
		Bucket(key []byte, n int) int
	}

	buf     []byte
	pk      []byte // partition-prefix scratch, reused across Add calls
	spills  int
	mapped  int64
	emitted int64
}

func newHOPCollector(j *job, rt *core.Runtime, n *node, chunk int) *hopCollector {
	h := &hopCollector{j: j, rt: rt, n: n, chunk: chunk, h1: rt.Fam.Fn(1)}
	if c, ok := j.spec.Query.(mr.Combiner); ok {
		h.comb = c
	}
	return h
}

// Add implements collector. The partition-prefixed key is built in a
// reused scratch buffer (AppendPair copies it into the collect buffer
// immediately).
func (h *hopCollector) Add(key, val []byte) {
	h.mapped++
	part := h.h1.Bucket(key, h.j.numReducers)
	h.pk = append(h.pk[:0], byte(part>>8), byte(part))
	h.pk = append(h.pk, key...)
	h.buf = kvenc.AppendPair(h.buf, h.pk, val)
	if int64(len(h.buf)) >= h.j.spec.Cluster.MapBuffer {
		h.push()
	}
}

// push sorts the buffer, applies the combiner, and publishes the spill
// immediately as its own shuffle unit.
func (h *hopCollector) push() {
	if len(h.buf) == 0 {
		return
	}
	model := h.rt.Model
	sorted, n := h.rt.SortStreamTo(bytestore.Get(len(h.buf)), h.buf)
	h.rt.ChargeCPU(model.CPUSort(int64(n)))
	h.buf = h.buf[:0] // collect buffer is recycled in place
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
			panic(fmt.Errorf("engine: corrupt hop spill in map task %d: %w", h.chunk, err))
		}
		h.rt.ChargeOps(model.CPUCombine, records)
		bytestore.Put(sorted)
		sorted = out
	}
	// Split the sorted compound run into per-partition segments.
	parts := make([][][]byte, h.j.numReducers)
	segs := make([][]byte, h.j.numReducers)
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
		panic(fmt.Errorf("engine: corrupt hop spill in map task %d: %w", h.chunk, err))
	}
	bytestore.Put(sorted) // per-partition segments copied out above
	for pi, s := range segs {
		if len(s) > 0 {
			parts[pi] = [][]byte{s}
		}
	}
	h.emitted += emitted
	h.spills++
	h.j.publishMapOutput(h.rt.P, h.n, fmt.Sprintf("map%06d.push%d", h.chunk, h.spills), -1, nil, parts, emitted)
}

// Finish implements collector: HOP publishes incrementally, so the
// last buffered spill is pushed and no aggregate output remains.
func (h *hopCollector) Finish() ([][][]byte, int64, int64) {
	h.push()
	return nil, h.mapped, h.emitted
}
