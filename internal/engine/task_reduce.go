package engine

import (
	"fmt"
	"math"

	"repro/internal/bytestore"
	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/kvenc"
	"repro/internal/mr"
	"repro/internal/sortmerge"
	"repro/internal/storage"
)

// consumedBitBytes is the serialized size of one map-task entry in a
// checkpoint's consumed-set image.
const consumedBitBytes = 1

// MaxReduceAttempts bounds one reduce task's restart ladder. Injected
// failures are capped per task and node deaths per run, so the only way
// to approach this is sustained spill corruption making every attempt
// fail on its own scratch data — an unwinnable plan (real frameworks
// fail the job after a handful of attempts). Failing loudly beats
// retrying forever.
const MaxReduceAttempts = 40

// OutTotals is the reduce output an OutputWriter has made final:
// counters, bytes and (under CollectOutput) the rows themselves.
type OutTotals struct {
	Records int64
	Bytes   int64
	Rows    [][2]string
}

// OutputWriter is the per-reduce-attempt sink: it counts output
// records into an OutTotals and hands ReduceOutput bytes to the
// driver's Sink in Page-sized batches (the DFS write-back). In runs
// where a reduce attempt can fail after emitting (node kills, injected
// reduce failures, disk faults) it runs in provisional mode: output is
// buffered, staged alongside each checkpoint image, and folded into
// the totals only when an attempt completes. Staging ties output
// visibility to the checkpoint chain the task finally restores from —
// a restore to an older image (the newest was corrupt or torn) drops
// everything staged after it, so the replayed suffix emits exactly
// once.
type OutputWriter struct {
	totals  *OutTotals
	sink    func(physBytes int64)
	flushAt int64
	collect bool
	pending int64

	// Provisional mode: output accumulates here (cumulatively over the
	// attempt, including a restored checkpoint's prefix) and folds into
	// the totals only when the attempt completes. staged tracks how much
	// of ubytes already went to the sink at checkpoints.
	provisional bool
	urecords    int64
	ubytes      int64
	staged      int64
	urows       [][2]string
}

// newOutputWriter returns a writer folding into totals and charging
// output bytes through sink.
func newOutputWriter(spec *JobSpec, provisional bool, totals *OutTotals, sink func(physBytes int64)) *OutputWriter {
	return &OutputWriter{totals: totals, sink: sink, flushAt: spec.Cluster.Page,
		collect: spec.CollectOutput, provisional: provisional}
}

// Emit implements mr.OutputWriter.
func (w *OutputWriter) Emit(key, value []byte) {
	sz := int64(len(key) + len(value) + 2)
	if w.provisional {
		w.urecords++
		w.ubytes += sz
		if w.collect {
			w.urows = append(w.urows, [2]string{string(key), string(value)})
		}
		return
	}
	w.totals.Records++
	w.totals.Bytes += sz
	if w.collect {
		w.totals.Rows = append(w.totals.Rows, [2]string{string(key), string(value)})
	}
	w.pending += sz
	if w.pending >= w.flushAt {
		w.Flush()
	}
}

// Flush sinks the bytes batched since the last flush.
func (w *OutputWriter) Flush() {
	w.write(w.pending)
	w.pending = 0
}

func (w *OutputWriter) write(physBytes int64) {
	if physBytes > 0 {
		w.sink(physBytes)
	}
}

// Commit makes the attempt's provisional output durable: the
// cumulative counters fold into the totals and any bytes not yet
// staged go to the sink. Called exactly once, when the attempt
// completes — output staged at intermediate checkpoints only becomes
// visible through a completing attempt's checkpoint chain.
func (w *OutputWriter) Commit() {
	if !w.provisional {
		return
	}
	w.totals.Records += w.urecords
	w.totals.Bytes += w.ubytes
	w.totals.Rows = append(w.totals.Rows, w.urows...)
	w.write(w.ubytes - w.staged)
	w.Discard()
}

// Discard drops a failed attempt's provisional output; the next
// attempt reloads the restore point's staged prefix.
func (w *OutputWriter) Discard() {
	w.urecords, w.ubytes, w.staged, w.urows = 0, 0, 0, nil
}

// stageInto records the attempt's cumulative output in a checkpoint
// and sinks the newly staged bytes. The rows are snapshotted by
// clipping capacity, so later Emits reallocate instead of overwriting
// the checkpoint's view.
func (w *OutputWriter) stageInto(ck *Checkpoint) {
	if !w.provisional {
		return
	}
	w.write(w.ubytes - w.staged)
	w.staged = w.ubytes
	w.urows = w.urows[:len(w.urows):len(w.urows)]
	ck.outRecords, ck.outBytes, ck.outRows = w.urecords, w.ubytes, w.urows
}

// restoreFrom reloads the output staged up to the checkpoint the
// attempt restarts from. Output staged after that image (by a failed
// attempt, or recorded in a damaged image the driver discarded) is
// dropped — the replayed suffix emits it again.
func (w *OutputWriter) restoreFrom(ck *Checkpoint) {
	w.urecords, w.ubytes, w.staged = ck.outRecords, ck.outBytes, ck.outBytes
	w.urows = ck.outRows[:len(ck.outRows):len(ck.outRows)]
}

// SnapshotWriter sinks approximate snapshot output: records count
// separately from the job's final answers, bytes are written back
// like any reduce output.
type SnapshotWriter struct {
	Sink    func(physBytes int64)
	Records *int64 // the job's snapshot-record counter
	pending int64
}

// Emit implements mr.OutputWriter.
func (w *SnapshotWriter) Emit(key, value []byte) {
	*w.Records++
	w.pending += int64(len(key) + len(value) + 2)
}

// Checkpoint is one committed reducer checkpoint: the serialized,
// CRC32C-framed platform state image with the disk buckets it points
// at, the consumed set at the instant it was taken, the byte accounting
// needed for delta writes and restore reads, and the output staged so
// far. The table or sketch travels as a framed blob — exactly what
// fault injection damages (bit flips at write time, torn tails at node
// death) and what restore verifies; the buckets stay the store's, by
// reference.
type Checkpoint struct {
	consumed  []bool // map tasks folded into the image (a copy of the task's set)
	consumedN int

	framed     []byte           // core.FramedImage(img): no bucket bytes
	refs       []core.BucketRef // img.Refs: the buckets, beside the frame
	torn       bool             // tail truncated by a torn-write injection
	prev       *Checkpoint      // the previous image, kept as the one fallback
	stateBytes int64            // table/sketch + consumed-set bytes (rewritten each time)
	bucketLens []int64          // cumulative per-bucket bytes (delta vs. previous image)
	bucketSum  int64            // Σ bucketLens (all read back on restore)

	// Output staged by the attempt up to this checkpoint (cumulative
	// since the task started). Staged output becomes externally visible
	// only through the checkpoint chain the task finally restores from
	// and completes on — like a transactional sink, a restore to an
	// older image discards everything staged after it, because the
	// replayed suffix will emit it again.
	outRecords int64
	outBytes   int64
	outRows    [][2]string
}

// StoredBytes is the image's size at rest — what a restore reads back.
func (ck *Checkpoint) StoredBytes() int64 { return ck.stateBytes + ck.bucketSum }

// release lets go of the image's buckets.
func (ck *Checkpoint) release() {
	for i := range ck.refs {
		ck.refs[i].Bytes.Release()
	}
}

// ReduceTask is one reduce task's state across its attempts, embedded
// by both drivers: the attempt ladder, the consumed set and the
// checkpoint chain. Which attempts an injected failure hits, where an
// attempt resumes, when it fails and what counts as a re-fetch are
// decided here, so both backends restart the same reducers; a driver
// keeps only where an attempt runs and how waiting and fetching pass.
// The zero value is a task before its first attempt.
type ReduceTask struct {
	attempts, injected int // attempts numbered so far; of them, injected

	consumed  []bool // map tasks the current attempt holds (reset by Resume)
	consumedN int
	fetched   []bool      // map tasks any attempt fetched input from
	ckpt      *Checkpoint // newest committed image (nil: restart from scratch)
}

// Next numbers the task's next attempt and says whether an injected
// failure hits it: the first failures attempts that run on a node that
// never dies are injected. An attempt on a dying node (dies,
// JobFrame.Dies) is not — it dies with its node, or is displaced
// without running. Next fails once MaxReduceAttempts are spent.
func (task *ReduceTask) Next(failures int, dies bool) (attempt int, inject bool, err error) {
	if task.attempts >= MaxReduceAttempts {
		return task.attempts, false, fmt.Errorf("failed %d attempts (unrecoverable fault plan?)", task.attempts)
	}
	attempt = task.attempts
	task.attempts++
	if inject = !dies && task.injected < failures; inject {
		task.injected++
	}
	return attempt, inject, nil
}

// Resume prepares the next attempt's starting point. Newest first, it
// drops the images whose frame no longer verifies (a flipped bit at
// write time, a tail torn when their node died: an image restores whole
// or not at all), and resets the consumed set from the newest good image
// (none: full replay). It returns that image's decoded state (nil: none),
// the stored bytes of the dropped images — read back before their frame
// failed, so the attempt pays for them — and how many were torn and
// corrupt.
func (task *ReduceTask) Resume(totalMaps int) (img *core.StateImage, badBytes int64, torn, corrupt int) {
	for ; task.ckpt != nil; task.ckpt = task.ckpt.prev {
		var err error
		if img, err = core.DecodeFramedImage(task.ckpt.framed); err == nil {
			img.Refs = task.ckpt.refs
			break
		}
		badBytes += task.ckpt.StoredBytes()
		task.ckpt.release()
		if task.ckpt.torn {
			torn++
		} else {
			corrupt++
		}
	}
	if task.consumed == nil {
		task.consumed, task.fetched = make([]bool, totalMaps), make([]bool, totalMaps)
	}
	clear(task.consumed)
	task.consumedN = 0
	if ck := task.ckpt; ck != nil {
		copy(task.consumed, ck.consumed)
		task.consumedN = ck.consumedN
	}
	return img, badBytes, torn, corrupt
}

// Release lets go of the task's images once it is done with them: its
// last attempt has finished.
func (task *ReduceTask) Release() {
	for ; task.ckpt != nil; task.ckpt = task.ckpt.prev {
		task.ckpt.release()
	}
}

// Abandon deletes the files that a failed or dead attempt of reduce
// task ridx left on st: its buckets and spill runs, their pages and
// their scratch extents.
func Abandon(st *storage.Store, ridx, attempt int) { st.DeleteAll(attemptPrefix(ridx, attempt) + ".") }

// attemptPrefix names an attempt of reduce task ridx in its files.
func attemptPrefix(ridx, attempt int) string { return fmt.Sprintf("r%03d.a%d", ridx, attempt) }

// Holds reports whether the current attempt has folded in map task
// mapTask (never -1, a HOP push).
func (task *ReduceTask) Holds(mapTask int) bool {
	return mapTask >= 0 && mapTask < len(task.consumed) && task.consumed[mapTask]
}

// TaskReducer is the work of one reduce attempt: the platform's
// reduce-side component behind one shape, its fail point and checkpoint
// clock. The driver decides which shuffle input is fed next and when;
// every charge goes through the runtime the reducer was built on.
type TaskReducer struct {
	spec     *JobSpec
	rt       *core.Runtime
	out      *OutputWriter
	task     *ReduceTask
	nextSnap float64

	inject   bool // fail once failN = max(1, ceil(FailPoint × maps)) tasks are consumed
	failN    int
	clock    func() int64 // the driver's checkpoint clock
	lastCkpt int64

	// Exactly one is non-nil.
	smr   *sortmerge.Reducer
	mrh   *core.MRHashReducer
	inch  *core.INCHashReducer
	dinch *core.DINCHashReducer
}

// Attempt builds the task's next attempt, after Resume: the spec's
// platform reducer on rt, emitting through an OutputWriter into totals
// and sink, charged the badBytes Resume dropped and resumed from its
// img (nil: from scratch), with the fail point armed when inject is
// set. Only the store prefix varies by attempt, so replays recompute
// identically. est is the job's estimated physical input size (the hash
// platforms size their partitioning from it); clock is CheckpointDue's.
func (task *ReduceTask) Attempt(spec *JobSpec, rt *core.Runtime, q mr.Query, ridx, attempt int, inject bool,
	totals *OutTotals, sink func(physBytes int64), est int64, img *core.StateImage, badBytes int64, clock func() int64) *TaskReducer {
	cfg := &spec.Cluster
	numReducers := int64(cfg.R * cfg.Nodes)
	prefix := attemptPrefix(ridx, attempt)
	out := newOutputWriter(spec, spec.ReduceRestarts(), totals, sink)
	t := &TaskReducer{spec: spec, rt: rt, out: out, task: task, nextSnap: spec.SnapshotEvery, inject: inject,
		failN: max(1, int(math.Ceil(spec.Faults.failPoint()*float64(len(task.consumed))))), clock: clock}
	switch spec.Platform {
	case SortMerge, HOP:
		t.smr = sortmerge.NewReducer(rt, q, sortmerge.ReducerConfig{
			Prefix:      prefix,
			Buffer:      cfg.ReduceBuffer,
			MergeFactor: cfg.MergeFactor,
			ReadSegment: cfg.ReadSegment,
		})
	case MRHash:
		t.mrh = core.NewMRHashReducer(rt, q, core.MRHashConfig{
			Prefix:      prefix,
			MemBudget:   cfg.ReduceBuffer,
			Page:        cfg.Page,
			ReadSegment: cfg.ReadSegment,
			// |D_r| estimated from the input size and Km.
			ExpectedBytes: int64(float64(est) * spec.Hints.Km / float64(numReducers)),
		})
	case INCHash:
		// Δ at one reducer.
		stateSize := int64(64)
		if inc, ok := q.(mr.Incremental); ok {
			stateSize = int64(inc.StateSize() + 24)
		}
		t.inch = core.NewINCHashReducer(rt, q, core.INCHashConfig{
			Prefix:             prefix,
			MemBudget:          cfg.ReduceBuffer,
			Page:               cfg.Page,
			ReadSegment:        cfg.ReadSegment,
			ExpectedStateBytes: spec.Hints.DistinctKeys * stateSize / numReducers,
		}, out)
	case DINCHash:
		t.dinch = core.NewDINCHashReducer(rt, q, core.DINCHashConfig{
			Prefix:               prefix,
			MemBudget:            cfg.ReduceBuffer,
			Page:                 cfg.Page,
			ReadSegment:          cfg.ReadSegment,
			ExpectedDistinctKeys: spec.Hints.DistinctKeys / numReducers,
			KeyBytes:             16,
			CoverageThreshold:    spec.CoverageThreshold,
			ScanEvery:            spec.ScanEvery,
		}, out)
	}
	if badBytes > 0 {
		rt.Store.Charge(rt.P, storage.Checkpoint, badBytes, false)
	}
	if img != nil {
		// Read the newest good image back (table/sketch + consumed set +
		// all bucket bytes), rebuild the reducer, and reload the output
		// staged up to the same image; the driver replays the suffix.
		rt.Store.Charge(rt.P, storage.Checkpoint, task.ckpt.StoredBytes(), false)
		if t.inch != nil {
			t.inch.Restore(img)
		} else {
			t.dinch.Restore(img)
		}
		out.restoreFrom(task.ckpt)
	}
	t.lastCkpt = clock()
	return t
}

// Incremental reports whether the reducer keeps checkpointable
// key→state tables (INC-/DINC-hash).
func (t *TaskReducer) Incremental() bool { return t.inch != nil || t.dinch != nil }

// Consume feeds partition part of parts (size bytes) to the attempt and
// marks the map tasks it covers consumed, each counting toward the fail
// point: mapTask (-1: a HOP push, which carries no task identity), or a
// node-combined run's covers, mapTask being their first. It returns
// size when an earlier attempt already fetched the input (recovery
// traffic, Report.ShuffleRefetchBytes), else 0.
func (t *TaskReducer) Consume(parts core.MapParts, part int, size int64, mapTask int, covers []int) (refetched int64) {
	task := t.task
	if size > 0 {
		if mapTask >= 0 {
			if task.fetched[mapTask] {
				refetched = size
			}
			task.fetched[mapTask] = true
		}
		t.feed(parts, part, size, mapTask)
	}
	for _, c := range covers {
		task.consumed[c] = true
	}
	task.consumedN += len(covers)
	if covers == nil && mapTask >= 0 {
		task.consumed[mapTask] = true
		task.consumedN++
	}
	return refetched
}

// feed drives one fetched partition into the reducer and charges the
// consume CPU. Sort-merge prices its merges from the pair counts the
// producer carried with the segments; the hash reducers count as they
// insert.
func (t *TaskReducer) feed(out core.MapParts, part int, size int64, task int) {
	model := t.rt.Model
	segs := out.Segs[part]
	if t.smr != nil {
		for i, seg := range segs {
			t.smr.Consume(seg, out.Recs[part][i])
		}
		// Merge CPU is charged by the reducer at spill time; reception
		// itself is a copy, of each segment into the shuffle buffer.
		t.rt.ChargeCPU(model.CPUOps(model.CPUParseByte, size))
		return
	}
	var records int64
	for _, seg := range segs {
		it := kvenc.NewIterator(seg)
		for k, v, ok := it.Next(); ok; k, v, ok = it.Next() {
			records++
			switch {
			case t.mrh != nil:
				t.mrh.Consume(k, v)
			case t.inch != nil:
				t.inch.Consume(k, v)
			default:
				t.dinch.Consume(k, v)
			}
		}
		if err := it.Err(); err != nil {
			// The payload passed frame verification (or never left
			// memory), so a kvenc-level break is an engine bug, not disk
			// damage — fail loudly.
			panic(fmt.Errorf("engine: corrupt shuffle segment from map task %d: %w", task, err))
		}
	}
	per := model.CPUHashInsert
	if t.Incremental() {
		per += model.CPUCombine
	}
	t.rt.ChargeCPU(model.CPUOps(per, records))
}

// SnapshotDue reports whether map progress frac has crossed the next
// SnapshotEvery threshold (sort-merge and HOP only, §3.3(4)).
func (t *TaskReducer) SnapshotDue(frac float64) bool {
	return t.smr != nil && t.spec.SnapshotEvery > 0 && frac >= t.nextSnap && t.nextSnap < 1
}

// Snapshot re-merges everything received so far into an approximate
// answer set on w and writes it back, consuming one threshold.
func (t *TaskReducer) Snapshot(w *SnapshotWriter) {
	t.smr.Snapshot(w)
	if w.pending > 0 {
		w.Sink(w.pending)
		w.pending = 0
	}
	t.nextSnap += t.spec.SnapshotEvery
}

// MergeDue reports whether sort-merge's background multi-pass merge
// trigger has fired.
func (t *TaskReducer) MergeDue() bool { return t.smr != nil && t.smr.MergeDue() }

// Merge drives the multi-pass merge until the trigger clears.
func (t *TaskReducer) Merge() { t.smr.Merge() }

// PrepareFinal completes sort-merge's remaining multi-pass merge once
// all map output has arrived (blocking I/O); a no-op on the hash
// platforms.
func (t *TaskReducer) PrepareFinal() {
	if t.smr != nil {
		t.smr.PrepareFinal()
	}
}

// Failed reports whether the attempt has reached its injected fail
// point.
func (t *TaskReducer) Failed() bool { return t.inject && t.task.consumedN >= t.failN }

// Finish runs the platform's finalization — the final merge and the
// reduce function, or the bucket passes — into the output writer,
// commits the attempt's output and flushes it, and returns DINC-hash's
// approximate-key count (0 elsewhere).
func (t *TaskReducer) Finish() (approxKeys int64) {
	switch {
	case t.smr != nil:
		t.smr.Finish(t.out)
	case t.mrh != nil:
		t.mrh.Finish(t.out)
	case t.inch != nil:
		t.inch.Finish()
	default:
		t.dinch.Finish()
		approxKeys = t.dinch.ApproxKeys()
	}
	t.out.Commit()
	t.out.Flush()
	return approxKeys
}

// CheckpointDue reports whether an incremental reducer's checkpoint
// interval (JobSpec.CheckpointEvery) has passed on the driver's clock
// since the attempt started or last checkpointed.
func (t *TaskReducer) CheckpointDue() bool {
	every := int64(t.spec.CheckpointEvery)
	return t.Incremental() && every > 0 && t.clock()-t.lastCkpt >= every
}

// Checkpoint snapshots the incremental reducer's state (key→state
// table or FREQUENT summary, plus its buckets by reference) together
// with a copy of the consumed set, serializes the table or summary into
// a CRC32C-framed image, charges the checkpoint write — full state +
// consumed set plus only the bucket bytes appended since the task's
// previous image — and stages the attempt's output so far with the
// image. The image becomes the task's newest, its predecessor the one
// fallback; the one before is dropped, and its buffers are reused.
func (t *TaskReducer) Checkpoint() *Checkpoint {
	var img *core.StateImage
	if t.inch != nil {
		img = t.inch.Snapshot()
	} else {
		img = t.dinch.Snapshot()
	}
	task, old := t.task, &Checkpoint{} // old: the image this one displaces, whose buffers it reuses
	var prevLens []int64
	if task.ckpt != nil {
		if task.ckpt.prev != nil {
			old = task.ckpt.prev
			old.release()
		}
		prevLens, task.ckpt.prev = task.ckpt.bucketLens, nil
	}
	ck := &Checkpoint{
		consumed:  append(old.consumed[:0], task.consumed...),
		consumedN: task.consumedN,
		framed:    core.FramedImage(old.framed, img),
		refs:      img.Refs,
		// One consumed-set entry per map task: the image records which
		// tasks' output is folded into the state.
		stateBytes: img.StateBytes() + int64(len(task.consumed))*consumedBitBytes,
		bucketLens: make([]int64, len(img.Refs)),
		prev:       task.ckpt,
	}
	bytestore.Put(img.Table)
	write := ck.stateBytes
	for i := range img.Refs {
		l := img.Refs[i].Bytes.Len()
		ck.bucketLens[i], ck.bucketSum = l, ck.bucketSum+l
		if i < len(prevLens) {
			l -= prevLens[i]
		}
		write += max(l, 0)
	}
	st := t.rt.Store
	st.Charge(t.rt.P, storage.Checkpoint, write, true)
	if st.Checksums {
		st.NoteOverhead(storage.Checkpoint, frame.FrameOverhead(len(ck.framed)))
	}
	t.out.stageInto(ck)
	task.ckpt = ck
	t.lastCkpt = t.clock()
	return ck
}
