package engine

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"time"

	"repro/internal/bytestore"
	"repro/internal/core"
	"repro/internal/kvenc"
	"repro/internal/mr"
	"repro/internal/sortmerge"
	"repro/internal/storage"
	"repro/internal/substrate"
)

// This file and task_reduce.go hold what one task attempt computes,
// written once against *core.Runtime, and a reduce task's rules across
// its attempts (ReduceTask). The DES (maptask.go, reducetask.go) and
// the wall-clock backend (internal/realexec) are drivers: they decide
// where an attempt runs and how waiting, fetching and charged time
// pass, and call into the code here — so both substrates issue the same
// charges in the same order, and restart the same reducers, by
// construction.

// MapCollector abstracts the map-output components: sort-merge's Map
// Output Buffer (which on HOP pushes its spills) and the Hash-based Map
// Output.
type MapCollector interface {
	Add(key, val []byte)
	Finish() (out core.MapParts, mapped, emitted int64)
}

// MapBody is the work of one map attempt over one chunk: the platform
// collector, the per-record map loop, and the CPU price of each read
// segment. The driver owns the chunk bytes, the input-read charge and
// when each segment is mapped; MapSegment is pure so it may run ahead
// of Replay on a compute pool.
type MapBody struct {
	// Quarantined counts bad records skipped so far under the
	// quarantine budget (replayed segments only).
	Quarantined int64

	spec    *JobSpec
	rt      *core.Runtime
	q       mr.Query
	wm      mr.Watermarker
	chunk   int
	input   []byte // the chunk, from Segments until Release
	coll    MapCollector
	perPair time.Duration // collector CPU per emitted pair, beyond sort CPU charged at spill time
}

// NewMapBody builds the attempt's collector for the spec's platform. q
// is the query instance the attempt maps with. On HOP every eager
// spill is handed to push (seq 1, 2, …) instead of accumulating; push
// is unused on the other platforms.
func NewMapBody(spec *JobSpec, rt *core.Runtime, q mr.Query, chunk, attempt int,
	push func(name string, seq int, out core.MapParts)) *MapBody {
	cfg := &spec.Cluster
	b := &MapBody{spec: spec, rt: rt, q: q, chunk: chunk}
	b.wm, _ = q.(mr.Watermarker)
	numReducers := cfg.R * cfg.Nodes
	switch spec.Platform {
	case SortMerge, HOP:
		// Sorting CPU is charged inside the collector at spill time.
		mc := sortmerge.MapCollectorConfig{
			Prefix:      fmt.Sprintf("m%06d.a%d", chunk, attempt),
			Partitions:  numReducers,
			Buffer:      cfg.MapBuffer,
			MergeFactor: cfg.MergeFactor,
			ReadSegment: cfg.ReadSegment,
		}
		if spec.Platform == HOP {
			// MapReduce Online-style pipelining: each spill is pushed to
			// the reducers eagerly, as its own shuffle unit.
			seq := 0
			mc.Push = func(out core.MapParts) {
				seq++
				push(fmt.Sprintf("map%06d.push%d", chunk, seq), seq, out)
			}
		}
		b.coll = sortmerge.NewMapCollector(rt, q, mc)
	default:
		hc := core.NewHashMapCollector(rt, q, numReducers, cfg.MapBuffer, spec.Platform.Incremental())
		b.coll = hc
		// Per emitted pair, not per input record: the collector touches
		// its table once per Add call. Charging per record billed a
		// combine for records that emitted nothing and missed the table
		// work of multi-emission records.
		b.perPair = cfg.Model.CPUHashInsert
		if hc.Combining() {
			b.perPair += cfg.Model.CPUCombine
		}
	}
	return b
}

// Segments takes the chunk over and splits it into read segments of
// the cluster's ReadSegment size, each extended to the next record
// boundary — one input I/O request plus one CPU burst apiece.
func (b *MapBody) Segments(data []byte) [][]byte {
	b.input = data
	seg := b.spec.Cluster.ReadSegment
	if seg <= 0 || seg > int64(len(data)) {
		seg = int64(len(data))
	}
	segs := make([][]byte, 0, int64(len(data))/max(seg, 1)+1)
	for len(data) > 0 {
		end := int(seg)
		if end >= len(data) {
			end = len(data)
		} else if nl := bytes.IndexByte(data[end:], '\n'); nl >= 0 {
			end += nl + 1
		} else {
			end = len(data)
		}
		segs = append(segs, data[:end])
		data = data[end:]
	}
	return segs
}

// Release hands the chunk back to bytestore once the attempt has ended
// — failed and superseded ones too — and nothing reads its segments.
func (b *MapBody) Release() {
	bytestore.Put(b.input)
	b.input = nil
}

// SegMapResult is one segment's map output: the emitted pairs in
// emission order plus, for watermarked queries, per-record marks so
// the replay can observe event times at exactly the points a serial
// record loop would.
type SegMapResult struct {
	pairs       []byte // kvenc stream of Map emissions, in order (pooled)
	marks       []byte // one record mark per input record (watermarked queries only; pooled)
	bytes       int64  // segment length
	records     int64
	pairsN      int64 // emitted pairs in the segment
	quarantined int64 // bad records skipped under the quarantine budget
}

// A record mark locates one input record's contribution in a
// SegMapResult: the record's mr.Watermarker.RecordTime, then how many
// pairs it emitted, little-endian.
const markBytes = 8 + 4

// Release hands the result's pooled buffers back. Replay does it for
// replayed segments; drivers call it for segments mapped ahead and then
// abandoned. Safe to call twice.
func (out *SegMapResult) Release() {
	bytestore.Put(out.pairs)
	bytestore.Put(out.marks)
	*out = SegMapResult{}
}

// emit appends one Map emission to the segment's output.
func (out *SegMapResult) emit(k, v []byte) {
	out.pairs = kvenc.AppendPair(bytestore.Grow(out.pairs, int(bytestore.PairBytes(len(k), len(v)))), k, v)
	out.pairsN++
}

// MapSegment applies the map function to every record of one segment,
// accumulating emissions into out. It is pure: it reads only the
// segment (and the query, whose Map must be receiver-pure) and writes
// only out, so it is safe to run on a compute pool. With a quarantine
// budget set, a record whose Map panics is rolled back and counted
// instead of failing the job (the budget is enforced in Replay, where
// the per-task total is deterministic).
func (b *MapBody) MapSegment(segment []byte, out *SegMapResult) {
	// Recycled emission buffer, handed back after the replay; sized to
	// the segment as map output is usually comparable.
	out.pairs = bytestore.Get(len(segment))
	out.bytes = int64(len(segment))
	if b.wm != nil {
		out.marks = bytestore.Get(markBytes * (bytes.Count(segment, []byte{'\n'}) + 1))
	}
	quarantine := b.spec.SkipBadRecords > 0
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
			b.quarantineRecord(line, out, emit)
		} else {
			b.mapRecord(line, out, emit)
		}
	}
}

// mapRecord feeds one input record through the map function (emit is
// out.emit), appending its emissions and, for watermarked queries, its
// record mark.
func (b *MapBody) mapRecord(line []byte, out *SegMapResult, emit func(k, v []byte)) {
	before := out.pairsN
	b.q.Map(line, emit)
	if b.wm != nil {
		out.marks = binary.LittleEndian.AppendUint64(out.marks, uint64(b.wm.RecordTime(line)))
		out.marks = binary.LittleEndian.AppendUint32(out.marks, uint32(out.pairsN-before))
	}
}

// quarantineRecord is mapRecord under the bad-record quarantine
// (Hadoop's skip mode): a record whose Map (or RecordTime) panics is
// rolled back — emissions truncated, no mark — and counted, so the
// replayed stream is exactly as if the record never existed.
func (b *MapBody) quarantineRecord(line []byte, out *SegMapResult, emit func(k, v []byte)) {
	pairs, pairsN, marks := len(out.pairs), out.pairsN, len(out.marks)
	defer func() {
		if r := recover(); r != nil {
			out.pairs, out.pairsN = out.pairs[:pairs], pairsN
			out.marks = out.marks[:marks]
			out.quarantined++
		}
	}()
	b.mapRecord(line, out, emit)
}

// Replay feeds one mapped segment into the collector in record order,
// calling observe with each record's event time just before its
// emissions (watermarked queries only), then charges the segment's CPU
// burst — parsing, the map function and the collector's per-pair work
// — and releases the segment. Segments must be replayed in chunk
// order.
func (b *MapBody) Replay(seg *SegMapResult, observe func(ts int64)) {
	b.Quarantined += seg.quarantined
	if q := b.spec.SkipBadRecords; q > 0 && b.Quarantined > q {
		// Budget blown: too many poison records in one task means the
		// input (or the query) is broken, not unlucky — fail the job
		// loudly rather than silently dropping data.
		panic(fmt.Errorf("engine: map task %d quarantined %d records, over the %d budget", b.chunk, b.Quarantined, q))
	}
	it := kvenc.NewIterator(seg.pairs)
	if b.wm == nil {
		for {
			k, v, more := it.Next()
			if !more {
				break
			}
			b.coll.Add(k, v)
		}
	} else {
		for m := seg.marks; len(m) > 0; m = m[markBytes:] {
			observe(int64(binary.LittleEndian.Uint64(m)))
			for e := binary.LittleEndian.Uint32(m[8:]); e > 0; e-- {
				k, v, _ := it.Next()
				b.coll.Add(k, v)
			}
		}
	}
	if err := it.Err(); err != nil {
		// pairs never left memory, so this is an engine bug, not disk
		// damage — fail loudly.
		panic(fmt.Errorf("engine: corrupt segment replay in map task %d: %w", b.chunk, err))
	}
	model := b.rt.Model
	cpu := model.CPUOps(model.CPUParseByte, seg.bytes) + model.CPUOps(model.CPUMapRecord, seg.records)
	if b.perPair > 0 {
		cpu += model.CPUOps(b.perPair, seg.pairsN)
	}
	b.rt.ChargeCPU(cpu)
	seg.Release() // the replay copied every pair into the collector
}

// Finish completes the collector: the task's per-partition output
// segments (none on HOP, which pushed everything) and its pair counts.
func (b *MapBody) Finish() (out core.MapParts, mapped, emitted int64) {
	return b.coll.Finish()
}

// WriteMapOutput writes a map output's per-partition segments to the
// store as one file (U3, for fault tolerance): one write request, one
// checksum frame per partition region, so a shuffle read verifies
// exactly the partition it fetches. The file adopts the output's
// backing buffer — the segments stay readable views of it — or, for a
// producer without one, a buffer the segments are gathered into here.
// It returns the file and each partition's size and offset in it.
func WriteMapOutput(p substrate.Proc, st *storage.Store, name string, out core.MapParts) (f *storage.File, partBytes, partOff []int64) {
	partBytes = make([]int64, len(out.Segs))
	partOff = make([]int64, len(out.Segs))
	var total int64
	for pi, segs := range out.Segs {
		partOff[pi] = total
		for _, s := range segs {
			partBytes[pi] += int64(len(s))
		}
		total += partBytes[pi]
	}
	all := out.Backing
	if all == nil {
		all = make([]byte, 0, total)
		for _, segs := range out.Segs {
			for _, s := range segs {
				all = append(all, s...)
			}
		}
	}
	f = st.Create(name, storage.MapOutput)
	if len(all) > 0 {
		st.AppendOwned(p, f, all, storage.MapOutput, partBytes)
	}
	return f, partBytes, partOff
}

// PartsBytes sizes a partitioned run's encoded segments.
func PartsBytes(parts [][][]byte) int64 {
	var b int64
	for _, segs := range parts {
		for _, s := range segs {
			b += int64(len(s))
		}
	}
	return b
}
