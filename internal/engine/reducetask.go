package engine

import (
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/kvenc"
	"repro/internal/metrics"
	"repro/internal/mr"
	"repro/internal/sim"
	"repro/internal/sortmerge"
	"repro/internal/storage"
)

// outputWriter is the per-reduce-task sink: it counts output records,
// batches bytes, and charges ReduceOutput disk writes on the task's
// node (the DFS write-back). In runs where a reduce attempt can fail
// after emitting (node kills, injected reduce failures) it runs in
// provisional mode: output is buffered, staged alongside each
// checkpoint image, and folded into the job only when an attempt
// completes. Staging ties output visibility to the checkpoint chain
// the task finally restores from — a restore to an older image (the
// newest was corrupt or torn) drops everything staged after it, so
// the replayed suffix emits exactly once.
type outputWriter struct {
	j       *job
	p       *sim.Proc
	n       *node
	pending int64
	flushAt int64

	// Provisional mode: output accumulates here (cumulatively over the
	// attempt, including a restored checkpoint's prefix) and folds into
	// the job only when the attempt completes. staged tracks how much of
	// ubytes already went to the write-behind queue at checkpoints.
	provisional bool
	urecords    int64
	ubytes      int64
	staged      int64
	urows       [][2]string
}

// Emit implements mr.OutputWriter.
func (w *outputWriter) Emit(key, value []byte) {
	sz := int64(len(key) + len(value) + 2)
	if w.provisional {
		w.urecords++
		w.ubytes += sz
		if w.j.spec.CollectOutput {
			w.urows = append(w.urows, [2]string{string(key), string(value)})
		}
		return
	}
	j := w.j
	j.outRecords++
	j.outBytes += sz
	if j.spec.CollectOutput {
		j.outputs = append(j.outputs, [2]string{string(key), string(value)})
	}
	w.pending += sz
	if w.pending >= w.flushAt {
		w.flush()
	}
}

func (w *outputWriter) flush() {
	if w.pending > 0 {
		w.n.enqueueOutput(w.pending)
		w.pending = 0
	}
}

// commit makes the attempt's provisional output durable: the
// cumulative counters fold into the job and any bytes not yet staged
// go to the write-behind queue. Called exactly once, when the attempt
// completes — output staged at intermediate checkpoints only becomes
// visible through a completing attempt's checkpoint chain.
func (w *outputWriter) commit() {
	if !w.provisional {
		return
	}
	w.j.outRecords += w.urecords
	w.j.outBytes += w.ubytes
	w.j.outputs = append(w.j.outputs, w.urows...)
	w.n.enqueueOutput(w.ubytes - w.staged)
	w.urecords, w.ubytes, w.staged, w.urows = 0, 0, 0, nil
}

// stageInto records the attempt's cumulative output in a checkpoint
// image and pushes the newly staged bytes to the write-behind queue.
// The rows are snapshotted by clipping capacity, so later Emits
// reallocate instead of overwriting the image's view.
func (w *outputWriter) stageInto(ck *ckptImage) {
	if !w.provisional {
		return
	}
	w.n.enqueueOutput(w.ubytes - w.staged)
	w.staged = w.ubytes
	w.urows = w.urows[:len(w.urows):len(w.urows)]
	ck.outRecords, ck.outBytes, ck.outRows = w.urecords, w.ubytes, w.urows
}

// restoreFrom reloads the output staged up to the checkpoint the
// attempt restarts from. Output staged after that image (by a failed
// attempt, or recorded in a damaged image the resolver discarded) is
// dropped — the replayed suffix emits it again.
func (w *outputWriter) restoreFrom(ck *ckptImage) {
	w.urecords, w.ubytes, w.staged = ck.outRecords, ck.outBytes, ck.outBytes
	w.urows = ck.outRows[:len(ck.outRows):len(ck.outRows)]
}

// discard drops the failed attempt's provisional output; the next
// attempt reloads the restore point's staged prefix via restoreFrom.
func (w *outputWriter) discard() {
	w.urecords, w.ubytes, w.staged, w.urows = 0, 0, 0, nil
}

// sync flushes and waits for the node's write-behind queue to drain —
// the reduce task's output commit.
func (w *outputWriter) sync() {
	w.flush()
	w.n.syncOutput(w.p)
}

// Shuffle-fetch retry backoff against a crashed-but-undeclared node:
// capped exponential, in virtual time.
const (
	fetchRetryBase = 500 * time.Millisecond
	fetchRetryCap  = 8 * time.Second
)

// consumedBitBytes is the serialized size of one map-task entry in a
// checkpoint's consumed-set image.
const consumedBitBytes = 1

// maxReduceAttempts bounds one reduce task's restart ladder. Injected
// failures are capped per task and node deaths per run, so the only way
// to approach this is sustained spill corruption making every attempt
// fail on its own scratch data — an unwinnable plan (real frameworks
// fail the job after a handful of attempts). Failing loudly beats
// retrying forever.
const maxReduceAttempts = 40

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
		if attempt >= maxReduceAttempts {
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
	cfg := &j.spec.Cluster
	model := cfg.Model
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
		copy(rs.consumed, ck.consumed)
		rs.consumedN = ck.consumedN
	}
	t.ensureAvailable(rs)

	p.Acquire(n.reduceSlots, 1)
	defer p.Release(n.reduceSlots, 1)
	start := p.Now()
	kind := "reduce"
	defer func() { j.addSpan(fmt.Sprintf("%s.a%d", p.Name(), attempt), kind, n.idx, start, p.Now()) }()

	curPhase := metrics.Phase(-1)
	setPhase := func(ph metrics.Phase) {
		if curPhase >= 0 {
			j.gauges.Leave(curPhase)
		}
		curPhase = ph
		if ph >= 0 {
			j.gauges.Enter(ph)
		}
	}
	defer func() { setPhase(-1) }()

	var ledger int64
	var out *outputWriter
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
				out.discard()
				res = reduceFailedInjected
			default:
				panic(r)
			}
		}
	}()

	rt := j.newRuntime(p, n, &ledger)
	out = &outputWriter{j: j, p: p, n: n, flushAt: cfg.Page,
		provisional: j.spec.Faults.risky() || j.spec.Faults.Disk.any()}

	var smr *sortmerge.Reducer
	var mrh *core.MRHashReducer
	var inch *core.INCHashReducer
	var dinch *core.DINCHashReducer
	prefix := fmt.Sprintf("r%03d.a%d", ridx, attempt)
	switch j.spec.Platform {
	case SortMerge:
		smr = sortmerge.NewReducer(rt, j.spec.Query, sortmerge.ReducerConfig{
			Prefix:      prefix,
			Buffer:      cfg.ReduceBuffer,
			MergeFactor: cfg.MergeFactor,
			ReadSegment: cfg.ReadSegment,
		})
	case MRHash:
		mrh = core.NewMRHashReducer(rt, j.spec.Query, core.MRHashConfig{
			Prefix:        prefix,
			MemBudget:     cfg.ReduceBuffer,
			Page:          cfg.Page,
			ReadSegment:   cfg.ReadSegment,
			ExpectedBytes: j.expectedReducerBytes(),
		})
	case INCHash:
		inch = core.NewINCHashReducer(rt, j.spec.Query, core.INCHashConfig{
			Prefix:             prefix,
			MemBudget:          cfg.ReduceBuffer,
			Page:               cfg.Page,
			ReadSegment:        cfg.ReadSegment,
			ExpectedStateBytes: j.expectedReducerStateBytes(),
		}, out)
	case DINCHash:
		dinch = core.NewDINCHashReducer(rt, j.spec.Query, core.DINCHashConfig{
			Prefix:               prefix,
			MemBudget:            cfg.ReduceBuffer,
			Page:                 cfg.Page,
			ReadSegment:          cfg.ReadSegment,
			ExpectedDistinctKeys: j.spec.Hints.DistinctKeys / int64(j.numReducers),
			KeyBytes:             16,
			CoverageThreshold:    j.spec.CoverageThreshold,
			ScanEvery:            j.spec.ScanEvery,
		}, out)
	}

	// Resume from the last good checkpoint: read the replicated image
	// back (table/sketch + consumed-set + all bucket bytes) and rebuild
	// the reducer, then replay only the unconsumed suffix. Damaged
	// images the resolver discarded were still read before their frame
	// failed verification — charge those bytes too.
	incremental := inch != nil || dinch != nil
	if badCkptBytes > 0 || (img != nil && incremental) {
		setPhase(metrics.PhaseRecover)
		if badCkptBytes > 0 {
			n.store.ChargeCheckpointRead(p, badCkptBytes)
		}
		if ck := rs.ckpt; ck != nil && img != nil {
			n.store.ChargeCheckpointRead(p, ck.stateBytes+ck.bucketSum)
			if inch != nil {
				inch.Restore(img)
			} else {
				dinch.Restore(img)
			}
			// The restored state pairs with the output staged up to the
			// same image; anything staged later replays.
			out.restoreFrom(ck)
		}
		setPhase(-1)
	}
	ckptEvery := int64(j.spec.CheckpointEvery)
	lastCkpt := p.Now()

	failN := j.totalMaps
	if inject {
		fp := j.spec.Faults.FailPoint
		if fp <= 0 || fp > 1 {
			fp = 1
		}
		failN = int(math.Ceil(fp * float64(j.totalMaps)))
		if failN < 1 {
			failN = 1
		}
	}
	failNow := func() bool { return inject && rs.consumedN >= failN }
	failOut := func() reduceResult {
		kind = "reduce-failed"
		j.wastedCPU += ledger
		out.discard()
		return reduceFailedInjected
	}
	if failNow() {
		return failOut()
	}

	// Shuffle loop: fetch each map task's partition exactly once, in
	// publication order, skipping lost outputs (their re-execution will
	// republish) and backing off on fetches from crashed-but-undeclared
	// nodes.
	nextSnap := j.spec.SnapshotEvery
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

		segs := o.parts[ridx]
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
			switch {
			case smr != nil:
				for _, seg := range segs {
					smr.Consume(seg)
				}
				n.chargeCPU(p, model.CPUOps(model.CPUParseByte, size), &ledger)
			default:
				var records int64
				for _, seg := range segs {
					it := kvenc.NewIterator(seg)
					for {
						k, v, okp := it.Next()
						if !okp {
							break
						}
						records++
						switch {
						case mrh != nil:
							mrh.Consume(k, v)
						case inch != nil:
							inch.Consume(k, v)
						default:
							dinch.Consume(k, v)
						}
					}
					if err := it.Err(); err != nil {
						// The payload passed frame verification, so a
						// kvenc-level break is an engine bug, not disk
						// damage — fail loudly.
						panic(fmt.Errorf("engine: corrupt shuffle segment from map task %d: %w", o.task, err))
					}
				}
				per := model.CPUHashInsert
				if j.spec.Platform.Incremental() {
					per += model.CPUCombine
				}
				n.chargeCPU(p, model.CPUOps(per, records), &ledger)
			}
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
		if incremental && ckptEvery > 0 && p.Now()-lastCkpt >= ckptEvery {
			j.takeCheckpoint(p, rs, n, inch, dinch, out)
			lastCkpt = p.Now()
		}

		if smr != nil && j.spec.SnapshotEvery > 0 {
			frac := float64(j.mapsDone) / float64(j.totalMaps)
			for frac >= nextSnap && nextSnap < 1 {
				setPhase(metrics.PhaseMerge)
				snap := &snapshotWriter{j: j, n: n}
				smr.Snapshot(snap)
				snap.flush()
				setPhase(metrics.PhaseShuffle)
				nextSnap += j.spec.SnapshotEvery
			}
		}
		if smr != nil && smr.Tree().NeedsMerge() {
			setPhase(metrics.PhaseMerge)
			for smr.Tree().NeedsMerge() {
				smr.Tree().MergeOnce(p, smr.Charger())
			}
			setPhase(metrics.PhaseShuffle)
		}
	}
	setPhase(-1)

	// All map output received: complete the task.
	switch {
	case smr != nil:
		setPhase(metrics.PhaseMerge)
		smr.PrepareFinal()
		setPhase(metrics.PhaseReduce)
		smr.Finish(out)
		setPhase(-1)
	case mrh != nil:
		setPhase(metrics.PhaseReduce)
		mrh.Finish(out)
		setPhase(-1)
	case inch != nil:
		setPhase(metrics.PhaseReduce)
		inch.Finish()
		setPhase(-1)
	default:
		setPhase(metrics.PhaseReduce)
		dinch.Finish()
		j.approxKeys += dinch.ApproxKeys()
		setPhase(-1)
	}

	out.commit()
	out.sync()
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

// takeCheckpoint snapshots the incremental reducer's state (key→state
// table or FREQUENT summary, plus bucket contents) together with the
// consumed-set, serializes it into a CRC32C-framed image, charges the
// checkpoint write (full state + consumed-set plus only the bucket
// bytes appended since the previous checkpoint), and stages the
// attempt's output so far with the image. The previous image is kept as a
// fallback; under fault injection the freshly written frame may be
// bit-flipped here — detected by restore, exactly like bit rot on the
// replicated copy.
func (j *job) takeCheckpoint(p *sim.Proc, rs *reduceState, n *node, inch *core.INCHashReducer, dinch *core.DINCHashReducer, out *outputWriter) {
	var img *core.StateImage
	if inch != nil {
		img = inch.Snapshot()
	} else {
		img = dinch.Snapshot()
	}
	payload := core.MarshalImage(img)
	ck := &ckptImage{
		framed:     frame.Append(nil, payload),
		consumed:   append([]bool(nil), rs.consumed...),
		consumedN:  rs.consumedN,
		stateBytes: img.StateBytes() + int64(j.totalMaps)*consumedBitBytes,
		bucketLens: img.BucketLens(),
	}
	write := ck.stateBytes
	var prev []int64
	if rs.ckpt != nil {
		prev = rs.ckpt.bucketLens
	}
	for i, l := range ck.bucketLens {
		ck.bucketSum += l
		var pl int64
		if i < len(prev) {
			pl = prev[i]
		}
		if l > pl {
			write += l - pl
		}
	}
	n.store.ChargeCheckpointWrite(p, write)
	if n.store.Checksums {
		n.store.NoteOverhead(storage.Checkpoint, frame.Overhead(len(payload)))
	}
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
	out.stageInto(ck)
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
		if img, err := core.DecodeFramedImage(ck.framed); err == nil {
			return img, badBytes
		}
		badBytes += ck.stateBytes + ck.bucketSum
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

	cfg := &j.spec.Cluster
	model := cfg.Model
	rt := j.newRuntime(p, n, &j.reduceCPU)
	out := &outputWriter{j: j, p: p, n: n, flushAt: cfg.Page}
	defer out.sync()

	// Platform-specific consumer.
	var smr *sortmerge.Reducer
	var mrh *core.MRHashReducer
	var inch *core.INCHashReducer
	var dinch *core.DINCHashReducer
	prefix := fmt.Sprintf("r%03d", ridx)
	switch j.spec.Platform {
	case SortMerge, HOP:
		smr = sortmerge.NewReducer(rt, j.spec.Query, sortmerge.ReducerConfig{
			Prefix:      prefix,
			Buffer:      cfg.ReduceBuffer,
			MergeFactor: cfg.MergeFactor,
			ReadSegment: cfg.ReadSegment,
		})
	case MRHash:
		mrh = core.NewMRHashReducer(rt, j.spec.Query, core.MRHashConfig{
			Prefix:        prefix,
			MemBudget:     cfg.ReduceBuffer,
			Page:          cfg.Page,
			ReadSegment:   cfg.ReadSegment,
			ExpectedBytes: j.expectedReducerBytes(),
		})
	case INCHash:
		inch = core.NewINCHashReducer(rt, j.spec.Query, core.INCHashConfig{
			Prefix:             prefix,
			MemBudget:          cfg.ReduceBuffer,
			Page:               cfg.Page,
			ReadSegment:        cfg.ReadSegment,
			ExpectedStateBytes: j.expectedReducerStateBytes(),
		}, out)
	case DINCHash:
		dinch = core.NewDINCHashReducer(rt, j.spec.Query, core.DINCHashConfig{
			Prefix:               prefix,
			MemBudget:            cfg.ReduceBuffer,
			Page:                 cfg.Page,
			ReadSegment:          cfg.ReadSegment,
			ExpectedDistinctKeys: j.spec.Hints.DistinctKeys / int64(j.numReducers),
			KeyBytes:             16,
			CoverageThreshold:    j.spec.CoverageThreshold,
			ScanEvery:            j.spec.ScanEvery,
		}, out)
	}

	// Shuffle loop: fetch each published output's partition for ridx.
	// The task counts as a shuffle task for the whole phase (the
	// Fig 2(a) timeline semantics), switching to the merge gauge while
	// it drives multi-pass merges.
	nextSnap := j.spec.SnapshotEvery
	j.gauges.Enter(metrics.PhaseShuffle)
	for next := 0; ; next++ {
		o, ok := j.shuffle.next(p, next)
		if !ok {
			break
		}
		segs := o.parts[ridx]
		size := o.partBytes[ridx]
		if size > 0 {
			// Network transfer into this reducer's node.
			p.Use(n.nic, 1, model.NetTime(size))
			if o.inMemory {
				j.memFetches++
			} else {
				// The mapper's output left its memory: serve from disk.
				j.diskFetches++
				o.node.store.ReadAt(p, o.file, o.partOff[ridx], size, storage.ShuffleRead)
			}
			switch {
			case smr != nil:
				for _, seg := range segs {
					smr.Consume(seg)
				}
				// Merge CPU is charged by the reducer at spill time;
				// reception itself is a copy.
				n.chargeCPU(p, model.CPUOps(model.CPUParseByte, size), &j.reduceCPU)
			default:
				var records int64
				for _, seg := range segs {
					it := kvenc.NewIterator(seg)
					for {
						k, v, okp := it.Next()
						if !okp {
							break
						}
						records++
						switch {
						case mrh != nil:
							mrh.Consume(k, v)
						case inch != nil:
							inch.Consume(k, v)
						default:
							dinch.Consume(k, v)
						}
					}
					if err := it.Err(); err != nil {
						panic(fmt.Errorf("engine: corrupt shuffle segment from map task %d: %w", o.task, err))
					}
				}
				per := model.CPUHashInsert
				if j.spec.Platform.Incremental() {
					per += model.CPUCombine
				}
				n.chargeCPU(p, model.CPUOps(per, records), &j.reduceCPU)
			}
		}
		j.fetchesDone++
		j.shuffle.release(o)

		// HOP snapshots: when the map progress crosses the next
		// threshold, re-merge everything received so far and emit an
		// approximate answer set (§3.3(4)).
		if smr != nil && j.spec.SnapshotEvery > 0 {
			frac := float64(j.mapsDone) / float64(j.totalMaps)
			for frac >= nextSnap && nextSnap < 1 {
				j.gauges.Enter(metrics.PhaseMerge)
				snap := &snapshotWriter{j: j, n: n}
				smr.Snapshot(snap)
				snap.flush()
				j.gauges.Leave(metrics.PhaseMerge)
				nextSnap += j.spec.SnapshotEvery
			}
		}

		// Sort-merge: drive the background multi-pass merge when the
		// trigger fires (inline, in Fig 2(a)'s "merge" phase).
		if smr != nil && smr.Tree().NeedsMerge() {
			j.gauges.Leave(metrics.PhaseShuffle)
			j.gauges.Enter(metrics.PhaseMerge)
			for smr.Tree().NeedsMerge() {
				smr.Tree().MergeOnce(p, smr.Charger())
			}
			j.gauges.Leave(metrics.PhaseMerge)
			j.gauges.Enter(metrics.PhaseShuffle)
		}
	}
	j.gauges.Leave(metrics.PhaseShuffle)

	// All map output received: complete the job.
	switch {
	case smr != nil:
		// Remaining multi-pass merge is blocking I/O (PhaseMerge);
		// the final merge + reduce function is PhaseReduce.
		j.gauges.Enter(metrics.PhaseMerge)
		smr.PrepareFinal()
		j.gauges.Leave(metrics.PhaseMerge)
		j.gauges.Enter(metrics.PhaseReduce)
		smr.Finish(out)
		j.gauges.Leave(metrics.PhaseReduce)
	case mrh != nil:
		j.gauges.Enter(metrics.PhaseReduce)
		mrh.Finish(out)
		j.gauges.Leave(metrics.PhaseReduce)
	case inch != nil:
		j.gauges.Enter(metrics.PhaseReduce)
		inch.Finish()
		j.gauges.Leave(metrics.PhaseReduce)
	default:
		j.gauges.Enter(metrics.PhaseReduce)
		dinch.Finish()
		j.approxKeys += dinch.ApproxKeys()
		j.gauges.Leave(metrics.PhaseReduce)
	}
}

// snapshotWriter sinks approximate snapshot output: records count
// separately from the job's final answers, bytes are written back
// like any reduce output.
type snapshotWriter struct {
	j       *job
	n       *node
	pending int64
}

// Emit implements mr.OutputWriter.
func (w *snapshotWriter) Emit(key, value []byte) {
	w.j.snapshotRecords++
	w.pending += int64(len(key) + len(value) + 2)
}

func (w *snapshotWriter) flush() {
	w.n.enqueueOutput(w.pending)
	w.pending = 0
}

// expectedReducerBytes estimates |D_r| from the input size and Km.
func (j *job) expectedReducerBytes() int64 {
	return int64(float64(j.inputBytesEst) * j.spec.Hints.Km / float64(j.numReducers))
}

// expectedReducerStateBytes estimates Δ at one reducer.
func (j *job) expectedReducerStateBytes() int64 {
	stateSize := int64(64)
	if inc, ok := j.spec.Query.(mr.Incremental); ok {
		stateSize = int64(inc.StateSize() + 24)
	}
	return j.spec.Hints.DistinctKeys * stateSize / int64(j.numReducers)
}
