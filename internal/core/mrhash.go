package core

import (
	"fmt"

	"repro/internal/bytestore"
	"repro/internal/kvenc"
	"repro/internal/mr"
	"repro/internal/storage"
)

// MRHashReducer is the basic hash technique of §4.1: hybrid-hash
// group-by. h2 partitions the reducer's input into buckets; the first
// bucket D1 is held completely in memory (grouped by h3) while the
// others stream to disk through per-bucket write buffers. After all
// input arrives, D1 is reduced in memory, then the disk buckets are
// read back one at a time; a bucket that does not fit in memory is
// recursively partitioned with h4, h5, ….
//
// MR-hash matches the unrestricted MapReduce model — the reduce
// function sees the complete value list of each key — so no reduce
// work can happen before all input has arrived; its benefit over
// sort-merge is the eliminated sorting CPU and the early in-memory
// handling of D1.
type MRHashReducer struct {
	rt        *Runtime
	q         mr.Query
	prefix    string
	memBudget int64
	page      int64
	seg       int64
	maxDepth  int

	table   *bytestore.Table
	buckets *bucketSet
	demoted bool // D1 overflowed memory and lives in bucket file 0
	extSeq  int  // external-sort scratch file counter

	received int64 // pairs consumed
}

// MRHashConfig sizes an MR-hash reducer.
type MRHashConfig struct {
	Prefix        string // unique per task, names spill files
	MemBudget     int64  // reducer memory (the scaled B_r), physical bytes
	Page          int64  // write-buffer page size, physical bytes
	ReadSegment   int64  // read request granularity
	ExpectedBytes int64  // expected reducer input |D_r| (sizes h)
	MaxBuckets    int    // cap on h (defends against bad hints)
}

// NewMRHashReducer creates the reducer. The number of on-disk buckets
// follows the hybrid-hash analysis: enough that each bucket is
// expected to fit in memory when read back, so recursive partitioning
// is not needed when memory ≥ 2√|D_r| (§4.1).
func NewMRHashReducer(rt *Runtime, q mr.Query, cfg MRHashConfig) *MRHashReducer {
	if cfg.MaxBuckets <= 0 {
		cfg.MaxBuckets = 1024
	}
	// Bucket count over the whole expected input (D1 included), with
	// the usual hybrid-hash safety factor: if the input is anywhere
	// near memory, spill buckets must exist — otherwise a slightly
	// oversized D1 demotes wholesale and gets repartitioned from disk.
	// The in-memory value table carries per-pair chain overhead and
	// buckets see hash variance, so size buckets against a discounted
	// budget: a bucket that misses its estimate pays a full extra
	// round trip through the external-sort fallback.
	nDisk := 0
	if cfg.ExpectedBytes > cfg.MemBudget*3/5 {
		nDisk = max(bucketCount(cfg.ExpectedBytes, cfg.MemBudget*7/10, cfg.MaxBuckets)-1, 1)
	}
	r := &MRHashReducer{
		rt:        rt,
		q:         q,
		prefix:    cfg.Prefix,
		memBudget: cfg.MemBudget,
		page:      cfg.Page,
		seg:       cfg.ReadSegment,
		maxDepth:  8,
	}
	// Bucket 0 is D1 (in memory); buckets 1..nDisk go to disk. The
	// bucket set covers all of them so a demoted D1 has a file slot.
	r.buckets = newBucketSet(rt, storage.ReduceSpill, cfg.Prefix, nDisk+1, cfg.Page, 2)
	r.table = bytestore.NewTable(rt.Fam.Fn(3), max(cfg.MemBudget-r.buckets.memoryBytes(), cfg.Page))
	return r
}

// Consume accepts one shuffled pair. CPU is charged by the engine per
// batch.
func (r *MRHashReducer) Consume(key, val []byte) {
	r.received++
	b := r.buckets.bucketOf(key)
	if b != 0 {
		r.buckets.addTo(b, key, val)
		return
	}
	if r.demoted {
		r.buckets.addTo(0, key, val)
		return
	}
	if !r.table.AppendValue(key, val) {
		r.demote()
		r.buckets.addTo(0, key, val)
	}
}

// demote moves the in-memory D1 into bucket file 0: a correct fallback
// when the memory bucket overflows (skew or a bad hint), keeping every
// key's values together for the reduce function.
func (r *MRHashReducer) demote() {
	r.demoted = true
	r.table.Range(func(key, _ []byte, values func(func([]byte))) bool {
		values(func(v []byte) { r.buckets.addTo(0, key, v) })
		return true
	})
	r.table.Release()
}

// SpilledPairs returns pairs routed to disk buckets so far.
func (r *MRHashReducer) SpilledPairs() int64 { return r.buckets.spilledPairs }

// Finish applies the reduce function to every group: first the
// in-memory D1, then each disk bucket (recursively partitioned if
// needed), writing answers to out.
func (r *MRHashReducer) Finish(out mr.OutputWriter) {
	r.buckets.flushAll()
	if !r.demoted {
		r.reduceTable(r.table, out)
	}
	r.table = nil
	// Bucket 0's file exists only once D1 was demoted to it.
	r.buckets.drain(r.seg, func(data []byte) { r.reducePairs(data, 4, out) })
}

// reduceTable runs the reduce function over a fully-grouped in-memory
// table, then releases it.
func (r *MRHashReducer) reduceTable(t *bytestore.Table, out mr.OutputWriter) {
	var records int64
	batch := r.rt.Batch(r.rt.Model.CPUReduceRec)
	t.Range(func(key, _ []byte, values func(func([]byte))) bool {
		var vals [][]byte
		values(func(v []byte) {
			vals = append(vals, append([]byte(nil), v...))
			records++
		})
		r.q.Reduce(key, &kvenc.SliceIter{Vals: vals}, out)
		batch.Add(int64(len(vals)))
		return true
	})
	batch.Flush()
	r.rt.FnRecords(records)
	t.Release()
}

// reducePairs groups an encoded pair stream in memory and reduces it;
// if it exceeds the memory budget it is recursively partitioned with
// the next hash function (h4, h5, …), reading and writing each level
// through disk. A bucket dominated by one key cannot be split by key
// hashing, so when partitioning stops making progress (or the depth
// cap is hit) the bucket falls back to an external sort that streams
// each group to the reduce function without materializing it.
func (r *MRHashReducer) reducePairs(data []byte, level int, out mr.OutputWriter) {
	t := bytestore.NewTable(r.rt.Fam.Fn(3), r.memBudget)
	fits, pairs := true, int64(0)
	it := kvenc.NewIterator(data)
	for key, val, ok := it.Next(); ok && fits; key, val, ok = it.Next() {
		fits = t.AppendValue(key, val)
		pairs++
	}
	mustDecode(it.Err(), r.prefix, "bucket")
	if fits {
		r.rt.ChargeOps(r.rt.Model.CPUHashInsert, pairs)
		r.reduceTable(t, out)
		return
	}
	t.Release()
	if level-4 >= r.maxDepth {
		r.sortAndStream(data, out)
		return
	}
	split(r.rt, r.prefix, level, data, r.memBudget, r.page, r.seg, func(d []byte) {
		if int64(len(d))*4 > int64(len(data))*3 {
			// Partitioning barely helped: the bucket is dominated by
			// one hot key whose value list no hash can split. Another
			// level would rewrite the same gigabytes again, so stream
			// it through an external sort instead.
			r.sortAndStream(d, out)
		} else {
			r.reducePairs(d, level+1, out)
		}
	})
}

// sortAndStream externally sorts one bucket and streams each group to
// the reduce function — the value lists never need to fit in memory.
// A bucket larger than memory pays one extra write+read round trip,
// the cost of materializing external sorted runs.
func (r *MRHashReducer) sortAndStream(data []byte, out mr.OutputWriter) {
	if int64(len(data)) > r.memBudget {
		r.extSeq++
		scratch := r.rt.Store.Create(fmt.Sprintf("%s.extsort%d", r.prefix, r.extSeq), storage.ReduceSpill)
		r.rt.Store.Append(r.rt.P, scratch, data, storage.ReduceSpill)
		r.rt.Store.Scan(r.rt.P, scratch, r.seg, storage.ReduceSpill)
		r.rt.Store.Delete(scratch)
	}
	sorted, n := kvenc.SortStream(data)
	r.rt.ChargeCPU(r.rt.Model.CPUSort(int64(n)))
	var records int64
	batch := r.rt.Batch(r.rt.Model.CPUReduceRec)
	g := kvenc.NewGroups(kvenc.NewMerger([][]byte{sorted}))
	for key, ok := g.NextGroup(); ok; key, ok = g.NextGroup() {
		r.q.Reduce(key, g, out)
		records += g.N
		batch.Add(g.N)
	}
	if err := g.Err(); err != nil {
		panic(fmt.Errorf("core: corrupt pairs in %s external sort: %w", r.prefix, err))
	}
	batch.Flush()
	r.rt.FnRecords(records)
}
