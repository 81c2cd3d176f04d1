package engine

import (
	"fmt"

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

// NewOutputWriter returns a writer folding into totals and charging
// output bytes through sink.
func NewOutputWriter(spec *JobSpec, provisional bool, totals *OutTotals, sink func(physBytes int64)) *OutputWriter {
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
// CRC32C-framed platform state image, the consumed-set at the instant
// it was taken, the byte accounting needed for delta writes and
// restore reads, and the output staged so far. The image travels as a
// framed blob — exactly what fault injection damages (bit flips at
// write time, torn tails at node death) and what restore verifies.
type Checkpoint struct {
	// Consumed marks the shuffle inputs folded into the image, in the
	// driver's own indexing (a copy of what TakeCheckpoint was given).
	Consumed  []bool
	ConsumedN int

	framed     []byte      // frame.Append(nil, core.MarshalImage(img))
	torn       bool        // tail truncated by a torn-write injection
	prev       *Checkpoint // previous image, kept as a fallback by drivers that damage images
	stateBytes int64       // table/sketch + consumed-set bytes (rewritten each time)
	bucketLens []int64     // cumulative per-bucket bytes (delta vs. previous image)
	bucketSum  int64       // Σ bucketLens (all read back on restore)

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

// Decode verifies the image's frame and decodes the platform state: a
// torn tail, a flipped bit, or a truncated payload all fail — an image
// restores whole or not at all.
func (ck *Checkpoint) Decode() (*core.StateImage, error) {
	return core.DecodeFramedImage(ck.framed)
}

// TaskReducer is the work of one reduce attempt: the platform's
// reduce-side component behind one shape. The driver decides which
// shuffle input is fed next and when; every CPU and I/O charge goes
// through the runtime the reducer was built on.
type TaskReducer struct {
	spec      *JobSpec
	rt        *core.Runtime
	out       *OutputWriter
	totalMaps int
	nextSnap  float64

	// Exactly one is non-nil.
	smr   *sortmerge.Reducer
	mrh   *core.MRHashReducer
	inch  *core.INCHashReducer
	dinch *core.DINCHashReducer
}

// NewTaskReducer constructs the spec's platform reducer, emitting into
// out. The configuration is the same on every attempt of a task (only
// the store prefix varies), so replayed attempts recompute
// identically. inputBytesEst is the job's estimated physical input
// size, from which the hash platforms size their partitioning.
func NewTaskReducer(spec *JobSpec, rt *core.Runtime, q mr.Query, out *OutputWriter, prefix string, inputBytesEst int64) *TaskReducer {
	cfg := &spec.Cluster
	numReducers := int64(cfg.R * cfg.Nodes)
	t := &TaskReducer{spec: spec, rt: rt, out: out, totalMaps: spec.Input.NumChunks(), nextSnap: spec.SnapshotEvery}
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
			ExpectedBytes: int64(float64(inputBytesEst) * spec.Hints.Km / float64(numReducers)),
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
	return t
}

// Incremental reports whether the reducer keeps checkpointable
// key→state tables (INC-/DINC-hash).
func (t *TaskReducer) Incremental() bool { return t.inch != nil || t.dinch != nil }

// Feed drives one fetched partition (part of out, size bytes in all,
// from map task `task`) into the reducer and charges the consume CPU.
// Sort-merge prices its merges from the pair counts the producer
// carried with the segments; the hash reducers count as they insert.
func (t *TaskReducer) Feed(out core.MapParts, part int, size int64, task int) {
	model := t.rt.Model
	segs := out.Segs[part]
	if t.smr != nil {
		for i, seg := range segs {
			t.smr.Consume(seg, out.Recs[part][i])
		}
		// Merge CPU is charged by the reducer at spill time; reception
		// itself is a copy.
		t.rt.ChargeCPU(model.CPUOps(model.CPUParseByte, size))
		return
	}
	var records int64
	for _, seg := range segs {
		it := kvenc.NewIterator(seg)
		for {
			k, v, ok := it.Next()
			if !ok {
				break
			}
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

// Finish runs the platform's finalization — the final merge and the
// reduce function, or the bucket passes — into the output writer, and
// returns DINC-hash's approximate-key count (0 elsewhere).
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
	return approxKeys
}

// TakeCheckpoint snapshots the incremental reducer's state (key→state
// table or FREQUENT summary, plus bucket contents) together with the
// driver's consumed-set, serializes it into a CRC32C-framed image,
// charges the checkpoint write — full state + consumed-set plus only
// the bucket bytes appended since prev, the task's previous checkpoint
// (nil: none) — and stages the attempt's output so far with the image.
func (t *TaskReducer) TakeCheckpoint(prev *Checkpoint, consumed []bool, consumedN int) *Checkpoint {
	var img *core.StateImage
	if t.inch != nil {
		img = t.inch.Snapshot()
	} else {
		img = t.dinch.Snapshot()
	}
	payload := core.MarshalImage(img)
	ck := &Checkpoint{
		Consumed:  append([]bool(nil), consumed...),
		ConsumedN: consumedN,
		framed:    frame.Append(nil, payload),
		// One consumed-set entry per map task, whatever the driver's
		// shuffle granularity: the image records which tasks' output is
		// folded into the state.
		stateBytes: img.StateBytes() + int64(t.totalMaps)*consumedBitBytes,
		bucketLens: img.BucketLens(),
	}
	write := ck.stateBytes
	var prevLens []int64
	if prev != nil {
		prevLens = prev.bucketLens
	}
	for i, l := range ck.bucketLens {
		ck.bucketSum += l
		var pl int64
		if i < len(prevLens) {
			pl = prevLens[i]
		}
		if l > pl {
			write += l - pl
		}
	}
	st := t.rt.Store
	st.ChargeCheckpointWrite(t.rt.P, write)
	if st.Checksums {
		st.NoteOverhead(storage.Checkpoint, frame.Overhead(len(payload)))
	}
	t.out.stageInto(ck)
	return ck
}

// Restore resumes a freshly constructed reducer from checkpoint ck,
// whose verified image is img: it reads the replicated image back
// (table/sketch + consumed-set + all bucket bytes), rebuilds the
// reducer, and reloads the output staged up to the same image — the
// driver then replays only the unconsumed suffix.
func (t *TaskReducer) Restore(ck *Checkpoint, img *core.StateImage) {
	t.rt.Store.ChargeCheckpointRead(t.rt.P, ck.StoredBytes())
	if t.inch != nil {
		t.inch.Restore(img)
	} else {
		t.dinch.Restore(img)
	}
	t.out.restoreFrom(ck)
}
