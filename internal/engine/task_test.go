package engine

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/bytestore"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/kvenc"
	"repro/internal/mr"
	"repro/internal/queries"
	"repro/internal/storage"
	"repro/internal/substrate"
)

// Direct tests for the shared task bodies (task_map.go,
// task_reduce.go). The goldens on both backends reach them end to end;
// these pin the contracts a driver relies on.

// bodySpec is a small job on platform pl over the test click stream.
func bodySpec(t *testing.T, pl Platform, q mr.Query) *JobSpec {
	t.Helper()
	m := cost.Default(1.0 / 4096)
	cl := PaperCluster(m)
	cl.Nodes = 2
	cl.R = 2
	cl.MapBuffer = 1 << 10
	cl.ReadSegment = 2 << 10
	return &JobSpec{Query: q, Input: testClicks(t, 64<<10, 16<<10), Platform: pl, Cluster: cl,
		Hints: mr.Hints{Km: 1, DistinctKeys: 400}, Seed: 1, CollectOutput: true}
}

// bodyRuntime is a wall-substrate runtime charging into ledger.
func bodyRuntime(spec *JobSpec, ledger *int64) *core.Runtime {
	st := storage.NewWallStore(0, spec.Cluster.Model, nil)
	st.Checksums = spec.Cluster.Checksums
	rt := core.NopRuntime(substrate.NewWallProc(time.Now()), st, spec.Cluster.Model)
	rt.ChargeCPU = func(d time.Duration) { *ledger += int64(d) }
	return rt
}

func emitRow(w *OutputWriter, i int) { w.Emit([]byte(fmt.Sprintf("k%d", i)), []byte("v")) }

func rows(from, to int) [][2]string {
	var out [][2]string
	for i := from; i < to; i++ {
		out = append(out, [2]string{fmt.Sprintf("k%d", i), "v"})
	}
	return out
}

func TestOutputWriterProvisionalStaging(t *testing.T) {
	spec := &JobSpec{CollectOutput: true}
	spec.Cluster.Page = 1 << 20
	var totals OutTotals
	var sunk []int64
	w := newOutputWriter(spec, true, &totals, func(b int64) { sunk = append(sunk, b) })
	const rowBytes = 2 + 1 + 2 // "kN" + "v" + framing

	// Stage at A (2 rows), emit, stage at B (3 rows).
	emitRow(w, 0)
	emitRow(w, 1)
	var a, b Checkpoint
	w.stageInto(&a)
	emitRow(w, 2)
	w.stageInto(&b)
	if totals.Records != 0 || len(totals.Rows) != 0 {
		t.Fatalf("provisional output leaked into the totals before Commit: %+v", totals)
	}
	if want := []int64{2 * rowBytes, rowBytes}; !reflect.DeepEqual(sunk, want) {
		t.Fatalf("staging sank %v, want the per-checkpoint deltas %v", sunk, want)
	}

	// Restore from A and emit a different suffix: neither image's rows
	// may be overwritten (the capacity-clip aliasing rule).
	w.restoreFrom(&a)
	w.Emit([]byte("x2"), []byte("v"))
	w.Emit([]byte("x3"), []byte("v"))
	if !reflect.DeepEqual(a.outRows, rows(0, 2)) {
		t.Errorf("checkpoint A's staged rows were overwritten: %v", a.outRows)
	}
	if !reflect.DeepEqual(b.outRows, rows(0, 3)) {
		t.Errorf("checkpoint B's staged rows were overwritten: %v", b.outRows)
	}

	// Commit sinks exactly the bytes not staged at the restore point.
	sunk = nil
	w.Commit()
	if want := []int64{2 * rowBytes}; !reflect.DeepEqual(sunk, want) {
		t.Errorf("Commit sank %v, want ubytes-staged = %v", sunk, want)
	}
	wantRows := append(rows(0, 2), [2]string{"x2", "v"}, [2]string{"x3", "v"})
	if totals.Records != 4 || totals.Bytes != 4*rowBytes || !reflect.DeepEqual(totals.Rows, wantRows) {
		t.Errorf("committed totals = %+v, want 4 records %v", totals, wantRows)
	}

	// Discard then restoreFrom reproduces A.
	emitRow(w, 9)
	w.Discard()
	w.restoreFrom(&a)
	if w.urecords != 2 || w.ubytes != 2*rowBytes || w.staged != 2*rowBytes || !reflect.DeepEqual(w.urows, rows(0, 2)) {
		t.Errorf("after Discard+restoreFrom(A): records %d bytes %d staged %d rows %v", w.urecords, w.ubytes, w.staged, w.urows)
	}
}

func TestOutputWriterDirectModeUpdatesTotalsPerEmit(t *testing.T) {
	spec := &JobSpec{CollectOutput: true}
	spec.Cluster.Page = 12
	var totals OutTotals
	var sunk []int64
	w := newOutputWriter(spec, false, &totals, func(b int64) { sunk = append(sunk, b) })
	for i := 0; i < 3; i++ {
		emitRow(w, i)
		// The DES progress sampler reads the totals mid-run.
		if totals.Records != int64(i+1) || len(totals.Rows) != i+1 {
			t.Fatalf("after %d emits totals = %+v", i+1, totals)
		}
	}
	w.Commit() // a no-op outside provisional mode
	w.Flush()
	if want := []int64{15}; !reflect.DeepEqual(sunk, want) || totals.Bytes != 15 {
		t.Errorf("sank %v (total %d), want one Page-triggered batch %v", sunk, totals.Bytes, want)
	}
}

// reduceAttempt resumes task and builds its next attempt on a fresh
// wall runtime, discarding output.
func reduceAttempt(t *testing.T, task *ReduceTask, spec *JobSpec, q mr.Query, inject bool) (*TaskReducer, *core.Runtime) {
	t.Helper()
	attempt, _, err := task.Next(0, false)
	if err != nil {
		t.Fatal(err)
	}
	var ledger int64
	rt := bodyRuntime(spec, &ledger)
	img, bad, _, _ := task.Resume(spec.Input.NumChunks())
	var totals OutTotals
	return task.Attempt(spec, rt, q, 0, attempt, inject, &totals, func(int64) {}, 64<<10, img, bad,
		func() int64 { return 0 }), rt
}

// clickSeg is one shuffle segment of INC-hash click-count states for
// users from … to-1.
func clickSeg(q mr.Query, from, to int) core.MapParts {
	inc := q.(mr.Incremental)
	var seg []byte
	for i := from; i < to; i++ {
		k := []byte(fmt.Sprintf("user%05d", i))
		seg = kvenc.AppendPair(seg, k, inc.Init(nil, k, []byte("1")))
	}
	return core.MapParts{Segs: [][][]byte{{seg}}}
}

// TestCheckpointAllocatesOneImage: a checkpoint copies the reducer's
// table once, into its table part, marshals that straight into its
// frame, and keeps its buckets by reference. With buckets holding ten
// times the table, Snapshot allocates its table part plus a fixed
// allowance (the image, the references, the write-buffer tails), and
// Checkpoint its frame plus a fixed allowance (the consumed set,
// bookkeeping) beyond that. Copying every bucket into the image and its
// frame allocated 97,952 B for the snapshot of a 1,805 B table here,
// and 41,136 B beyond it for a 38,028 B frame.
func TestCheckpointAllocatesOneImage(t *testing.T) {
	q := queries.NewClickCount()
	spec := bodySpec(t, INCHash, q)
	spec.Cluster.ReduceBuffer = 4 << 10
	spec.Cluster.Page = 256
	spec.Cluster.Checksums = true
	var task ReduceTask
	red, _ := reduceAttempt(t, &task, spec, q, false)
	parts := clickSeg(q, 0, 2000)
	red.Consume(parts, 0, int64(len(parts.Segs[0][0])), 0, nil)
	red.Checkpoint()
	allocated := func(fn func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	var img *core.StateImage
	var ck *Checkpoint
	snap := allocated(func() { img = red.inch.Snapshot() })
	table := uint64(len(img.Table))
	bytestore.Put(img.Table) // give the pooled parts back, as Checkpoint does
	for i := range img.Refs {
		img.Refs[i].Bytes.Release()
	}
	extra := allocated(func() { ck = red.Checkpoint() }) - snap
	framed := uint64(len(ck.framed))
	t.Logf("a snapshot of a %d B table and %d B of buckets allocated %d B; its checkpoint %d B beyond that for a %d B frame",
		table, ck.bucketSum, snap, extra, framed)
	if uint64(ck.bucketSum) < 10*table {
		t.Fatalf("test setup: %d B of buckets, not ten times the %d B table", ck.bucketSum, table)
	}
	if snap > table+4<<10 {
		t.Errorf("one snapshot allocated %d B, over its %d B table part plus 4 KiB", snap, table)
	}
	if extra > framed+4<<10 {
		t.Errorf("one checkpoint allocated %d B beyond its snapshot, over its %d B frame plus 4 KiB", extra, framed)
	}
}

func TestTakeCheckpointPricesBucketDeltas(t *testing.T) {
	q := queries.NewClickCount()
	spec := bodySpec(t, INCHash, q)
	spec.Cluster.ReduceBuffer = 2 << 10 // force overflow keys into disk buckets
	spec.Cluster.Page = 256
	spec.Cluster.Checksums = true
	totalMaps := int64(spec.Input.NumChunks())

	var task ReduceTask
	red, rt := reduceAttempt(t, &task, spec, q, false)
	feed := func(from, to, mapTask int) {
		parts := clickSeg(q, from, to)
		red.Consume(parts, 0, int64(len(parts.Segs[0][0])), mapTask, nil)
	}
	ckptCounters := func(rt *core.Runtime) (written, read, overhead int64) {
		c := rt.Store.Counters()
		return c.WrittenBytes[storage.Checkpoint], c.ReadBytes[storage.Checkpoint], c.OverheadBytes[storage.Checkpoint]
	}

	feed(0, 300, 0)
	ck1 := red.Checkpoint()
	if ck1.bucketSum == 0 {
		t.Fatal("test setup: no key overflowed into a bucket, the delta pricing is unexercised")
	}
	w1, _, ov1 := ckptCounters(rt)
	if want := ck1.stateBytes + ck1.bucketSum; w1 != want {
		t.Errorf("first checkpoint wrote %d, want state+consumed-set+all buckets = %d", w1, want)
	}
	if ov1 == 0 {
		t.Error("checksummed store recorded no checkpoint framing overhead")
	}
	if task.consumed[0] = false; !ck1.consumed[0] || ck1.consumedN != 1 {
		t.Error("checkpoint aliases the task's consumed set instead of copying it")
	}
	task.consumed[0] = true

	feed(300, 500, 1)
	ck2 := red.Checkpoint()
	if ck2.prev != ck1 || task.ckpt != ck2 {
		t.Error("the new image is not chained onto the task with its predecessor as fallback")
	}
	w2, _, _ := ckptCounters(rt)
	var grown int64
	for i, l := range ck2.bucketLens {
		if i < len(ck1.bucketLens) {
			l -= ck1.bucketLens[i]
		}
		if l > 0 {
			grown += l
		}
	}
	if grown == 0 || grown == ck2.bucketSum {
		t.Fatalf("test setup: bucket growth %d of %d does not separate delta from full pricing", grown, ck2.bucketSum)
	}
	if got, want := w2-w1, ck2.stateBytes+grown; got != want {
		t.Errorf("second checkpoint wrote %d, want state+consumed-set+grown bucket bytes = %d", got, want)
	}

	// Restore on a fresh attempt reads the whole stored image back and
	// holds the image's consumed set.
	img, err := core.DecodeFramedImage(ck2.framed)
	if err != nil {
		t.Fatal(err)
	}
	if want := img.StateBytes() + totalMaps*consumedBitBytes; ck2.stateBytes != want {
		t.Errorf("stateBytes = %d, want the table plus one consumed-set entry per map task = %d", ck2.stateBytes, want)
	}
	_, rt2 := reduceAttempt(t, &task, spec, q, false)
	if _, got, _ := ckptCounters(rt2); got != ck2.StoredBytes() {
		t.Errorf("resume read %d checkpoint bytes, want StoredBytes = %d", got, ck2.StoredBytes())
	}
	if !task.Holds(0) || !task.Holds(1) || task.Holds(2) || task.Holds(-1) {
		t.Errorf("resumed consumed set %v, want map tasks 0 and 1", task.consumed)
	}

	// A flipped bit fails verification: the image restores whole or not
	// at all, and Resume falls back to its predecessor, charging the
	// dropped image's bytes.
	ck2.framed[len(ck2.framed)/2] ^= 0x10
	if _, err := core.DecodeFramedImage(ck2.framed); err == nil {
		t.Error("bit-flipped checkpoint image decoded")
	}
	img, bad, torn, corrupt := task.Resume(int(totalMaps))
	if img == nil || task.ckpt != ck1 || bad != ck2.StoredBytes() || torn != 0 || corrupt != 1 {
		t.Errorf("Resume: image %v, fell back to ck1 %v, badBytes %d (want %d), torn %d, corrupt %d (want 0, 1)",
			img != nil, task.ckpt == ck1, bad, ck2.StoredBytes(), torn, corrupt)
	}
	if !task.Holds(0) || task.Holds(1) || task.consumedN != 1 {
		t.Errorf("consumed set after the fallback %v, want map task 0 alone", task.consumed)
	}
	var ledger3 int64
	rt3 := bodyRuntime(spec, &ledger3)
	var totals OutTotals
	task.Attempt(spec, rt3, q, 0, 3, false, &totals, func(int64) {}, 64<<10, img, bad, func() int64 { return 0 })
	if _, got, _ := ckptCounters(rt3); got != ck2.StoredBytes()+ck1.StoredBytes() {
		t.Errorf("fallback attempt read %d checkpoint bytes, want the dropped and the restored image = %d",
			got, ck2.StoredBytes()+ck1.StoredBytes())
	}
}

// TestReduceTaskLadder: an injected failure hits the first attempts
// that run on a node that never dies, and the ladder ends in an error
// at MaxReduceAttempts.
func TestReduceTaskLadder(t *testing.T) {
	var task ReduceTask
	for i, step := range []struct {
		dies, inject bool
	}{{true, false}, {false, true}, {true, false}, {false, true}, {false, false}} {
		attempt, inject, err := task.Next(2, step.dies)
		if err != nil || attempt != i || inject != step.inject {
			t.Errorf("attempt %d (dies %v): got attempt %d inject %v err %v, want inject %v",
				i, step.dies, attempt, inject, err, step.inject)
		}
	}
	for i := 5; i < MaxReduceAttempts; i++ {
		if _, _, err := task.Next(2, false); err != nil {
			t.Fatalf("attempt %d: %v", i, err)
		}
	}
	if _, _, err := task.Next(2, false); err == nil {
		t.Errorf("attempt %d was handed out, want an error at MaxReduceAttempts", MaxReduceAttempts)
	}
}

// TestReduceTaskConsumeCovered: a node-combined run marks every map
// task it covers, each counting toward the fail point, and a later
// attempt's fetch of the same input is a re-fetch.
func TestReduceTaskConsumeCovered(t *testing.T) {
	q := queries.NewClickCount()
	spec := bodySpec(t, INCHash, q)
	spec.Faults.FailPoint = 0.4 // 2 of the 5 map tasks
	parts := clickSeg(q, 0, 50)
	size := int64(len(parts.Segs[0][0]))

	var task ReduceTask
	red, _ := reduceAttempt(t, &task, spec, q, true)
	if red.failN != 2 || red.Failed() {
		t.Fatalf("test setup: fail point %d (want 2 map tasks), failed before consuming: %v", red.failN, red.Failed())
	}
	if got := red.Consume(parts, 0, size, 1, []int{1, 2}); got != 0 {
		t.Errorf("first fetch counted %d re-fetched bytes", got)
	}
	if !task.Holds(1) || !task.Holds(2) || task.Holds(0) || task.consumedN != 2 {
		t.Errorf("consumed set %v (%d), want map tasks 1 and 2", task.consumed, task.consumedN)
	}
	if !red.Failed() {
		t.Error("two covered map tasks did not reach the fail point")
	}

	red, _ = reduceAttempt(t, &task, spec, q, false)
	if task.Holds(1) || task.consumedN != 0 {
		t.Error("a restart without checkpoints kept the failed attempt's consumed set")
	}
	if got := red.Consume(parts, 0, size, 1, []int{1, 2}); got != size {
		t.Errorf("second attempt's fetch counted %d re-fetched bytes, want %d", got, size)
	}
	if red.Failed() {
		t.Error("an attempt without injection failed")
	}
}

// twoThenPanic emits two pairs per record and panics, after emitting,
// on records starting with '!'. It is watermarked so marks are kept.
type twoThenPanic struct{}

func (twoThenPanic) Name() string { return "two-then-panic" }
func (twoThenPanic) Map(rec []byte, emit func(k, v []byte)) {
	emit(rec, []byte("a"))
	emit(rec, []byte("b"))
	if rec[0] == '!' {
		panic("poison record")
	}
}
func (twoThenPanic) Reduce([]byte, kvenc.ValueIter, mr.OutputWriter) {}
func (twoThenPanic) RecordTime(rec []byte) int64                     { return int64(len(rec)) }
func (twoThenPanic) AdvanceWatermark(int64)                          {}

func TestMapBodyQuarantineRollback(t *testing.T) {
	q := twoThenPanic{}
	spec := bodySpec(t, MRHash, q)
	spec.SkipBadRecords = 1
	var ledger int64
	body := NewMapBody(spec, bodyRuntime(spec, &ledger), q, 3, 0, nil)

	var seg SegMapResult
	body.MapSegment([]byte("good1\n!bad\n\ngood22\n"), &seg)
	if seg.records != 3 || seg.quarantined != 1 || seg.pairsN != 4 {
		t.Fatalf("records %d quarantined %d pairs %d, want 3/1/4", seg.records, seg.quarantined, seg.pairsN)
	}
	var want []byte // (ts 5, 2 pairs), (ts 6, 2 pairs)
	for _, m := range [][2]int{{5, 2}, {6, 2}} {
		want = binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint64(want, uint64(m[0])), uint32(m[1]))
	}
	if !bytes.Equal(seg.marks, want) {
		t.Errorf("marks = %v, want none for the poisoned record: %v", seg.marks, want)
	}
	if bytes.Contains(seg.pairs, []byte("!bad")) {
		t.Error("the poisoned record's two emissions were not rolled back")
	}
	var seen []int64
	body.Replay(&seg, func(ts int64) { seen = append(seen, ts) })
	if !reflect.DeepEqual(seen, []int64{5, 6}) || body.Quarantined != 1 {
		t.Errorf("observed %v, quarantined %d", seen, body.Quarantined)
	}
	if seg.pairs != nil || seg.marks != nil {
		t.Error("Replay did not release the segment")
	}
	if _, mapped, _ := body.Finish(); mapped != 4 {
		t.Errorf("collector saw %d pairs, want 4", mapped)
	}

	// The budget panics at q+1.
	body = NewMapBody(spec, bodyRuntime(spec, &ledger), q, 3, 0, nil)
	body.MapSegment([]byte("!a\n!b\n"), &seg)
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "quarantined 2 records, over the 1 budget") {
			t.Errorf("budget breach recovered %v", r)
		}
	}()
	body.Replay(&seg, func(int64) {})
	t.Error("Replay accepted 2 quarantined records under a budget of 1")
}

func TestMapBodySegmentsEndOnRecordBoundaries(t *testing.T) {
	spec := bodySpec(t, SortMerge, queries.NewClickCount())
	var ledger int64
	body := NewMapBody(spec, bodyRuntime(spec, &ledger), spec.Query, 0, 0, nil)
	data := spec.Input.ChunkBytes(0)
	for _, readSeg := range []int64{0, 1, 100, 2 << 10, int64(len(data)), int64(len(data)) + 1} {
		spec.Cluster.ReadSegment = readSeg
		segs := body.Segments(data)
		if !bytes.Equal(bytes.Join(segs, nil), data) {
			t.Fatalf("ReadSegment %d: segments do not tile the chunk", readSeg)
		}
		for i, s := range segs {
			if len(s) == 0 || s[len(s)-1] != '\n' {
				t.Fatalf("ReadSegment %d: segment %d/%d does not end on a record boundary", readSeg, i, len(segs))
			}
			if readSeg > 0 && i < len(segs)-1 && int64(len(s)) < readSeg {
				t.Fatalf("ReadSegment %d: interior segment %d is only %d bytes", readSeg, i, len(s))
			}
		}
	}
	if segs := body.Segments([]byte("a\nb")); len(segs) != 1 {
		t.Errorf("an unterminated tail split into %d segments", len(segs))
	}
}

// mapChunk runs chunk 0 through a fresh MapBody in one of the two
// driver shapes and returns the published parts and counts.
func mapChunk(t *testing.T, spec *JobSpec, mapAhead bool) (pushed []string, parts [][][]byte, counts [4]int64) {
	t.Helper()
	var ledger int64
	q := queries.NewClickCount()
	var hopParts [][][]byte
	body := NewMapBody(spec, bodyRuntime(spec, &ledger), q, 7, 2,
		func(name string, seq int, p core.MapParts) {
			pushed = append(pushed, fmt.Sprintf("%s#%d", name, seq))
			hopParts = append(hopParts, p.Segs...)
		})
	segs := body.Segments(spec.Input.ChunkBytes(0))
	outs := make([]SegMapResult, len(segs))
	if mapAhead { // the DES shape: every segment mapped before any replay
		for i, s := range segs {
			body.MapSegment(s, &outs[i])
		}
	}
	for i, s := range segs {
		if !mapAhead { // the wall-clock shape: map and replay interleaved
			body.MapSegment(s, &outs[i])
		}
		body.Replay(&outs[i], nil)
	}
	out, mapped, emitted := body.Finish()
	parts = out.Segs
	if spec.Platform == HOP {
		parts = hopParts
	}
	return pushed, parts, [4]int64{mapped, emitted, body.Quarantined, ledger}
}

func TestMapBodyDriverShapesAgree(t *testing.T) {
	for _, pl := range []Platform{SortMerge, HOP, MRHash, INCHash, DINCHash} {
		t.Run(pl.String(), func(t *testing.T) {
			spec := bodySpec(t, pl, queries.NewClickCount())
			pushA, partsA, countsA := mapChunk(t, spec, true)
			pushB, partsB, countsB := mapChunk(t, spec, false)
			if !reflect.DeepEqual(partsA, partsB) {
				t.Error("map-ahead and interleaved shapes published different bytes")
			}
			if countsA != countsB || !reflect.DeepEqual(pushA, pushB) {
				t.Errorf("counts (mapped, emitted, quarantined, cpu) %v vs %v; pushes %v vs %v", countsA, countsB, pushA, pushB)
			}
			if countsA[0] == 0 || PartsBytes(partsA) == 0 {
				t.Fatal("test setup: the chunk mapped to nothing")
			}
			if pl != HOP {
				if len(pushA) != 0 {
					t.Errorf("non-HOP platform pushed %v", pushA)
				}
				return
			}
			// HOP pushes eager spills seq 1, 2, … under the task's name.
			if len(pushA) < 2 {
				t.Fatalf("test setup: only %d HOP pushes", len(pushA))
			}
			for i, got := range pushA {
				if want := fmt.Sprintf("map000007.push%d#%d", i+1, i+1); got != want {
					t.Errorf("push %d = %s, want %s", i, got, want)
				}
			}
		})
	}
}

// TestHashCollectorOutputIsAdoptedByTheFile: a hash map task that
// flushed once hands WriteMapOutput the buffer its segments were
// scattered into, and the file keeps that very array — no gather, no
// copy. A write persisted with a flipped bit still lands in the file's
// own clone, so the shuffle segments served from the collector's
// buffer stay clean.
func TestHashCollectorOutputIsAdoptedByTheFile(t *testing.T) {
	q := queries.NewSessionization(5*time.Minute, 512, 5*time.Second)
	spec := bodySpec(t, INCHash, q)
	spec.Cluster.MapBuffer = 1 << 20
	spec.Cluster.Checksums = true
	mapChunk := func(rt *core.Runtime, chunk int) core.MapParts {
		body := NewMapBody(spec, rt, q, chunk, 0, nil)
		for _, s := range body.Segments(spec.Input.ChunkBytes(chunk)) {
			var seg SegMapResult
			body.MapSegment(s, &seg)
			body.Replay(&seg, q.AdvanceWatermark)
		}
		out, _, emitted := body.Finish()
		if emitted == 0 || out.Backing == nil {
			t.Fatalf("chunk %d: %d pairs emitted, backing %v", chunk, emitted, out.Backing != nil)
		}
		return out
	}
	var ledger int64
	rt := bodyRuntime(spec, &ledger)
	out := mapChunk(rt, 0)
	f, partBytes, partOff := WriteMapOutput(rt.P, rt.Store, "m0.out", out)
	data, err := rt.Store.ReadAtChecked(rt.P, f, 0, f.Size(), storage.MapOutput)
	if err != nil {
		t.Fatal(err)
	}
	if &data[0] != &out.Backing[0] || len(data) != len(out.Backing) {
		t.Fatal("the map output file copied the collector's buffer")
	}
	for p, segs := range out.Segs {
		if len(segs) > 1 || PartsBytes([][][]byte{segs}) != partBytes[p] {
			t.Fatalf("partition %d: %d segments, %d bytes recorded", p, len(segs), partBytes[p])
		}
		if len(segs) == 1 && &segs[0][0] != &data[partOff[p]] {
			t.Fatalf("partition %d does not start at offset %d of the file", p, partOff[p])
		}
	}

	df := &storage.DiskFaults{Seed: 9, CorruptRate: 1}
	df.Classes[storage.MapOutput] = true
	rt.Store.SetFaults(df)
	flipped := 0
	for chunk := 0; chunk < spec.Input.NumChunks(); chunk++ {
		out := mapChunk(rt, chunk)
		want := bytes.Clone(out.Backing)
		f, _, _ := WriteMapOutput(rt.P, rt.Store, fmt.Sprintf("c%d.out", chunk), out)
		if !bytes.Equal(out.Backing, want) {
			t.Fatal("the bit flip is visible through the collector's segments")
		}
		data, err := rt.Store.ReadAtChecked(rt.P, f, 0, f.Size(), storage.MapOutput)
		if err != nil {
			flipped++
		} else if !bytes.Equal(data, want) || &data[0] != &out.Backing[0] {
			t.Fatalf("clean write %d was copied", chunk)
		}
	}
	if flipped == 0 {
		t.Fatal("test setup: no write was corrupted")
	}
}
