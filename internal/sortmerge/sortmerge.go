// Package sortmerge implements Hadoop's sort-merge data path (§2.2) —
// the baseline the paper's hash framework is measured against.
//
// Map side: output pairs accumulate in a buffer of size B_m tagged
// with their partition; the buffer is sorted on the compound
// (partition, key) — realized here by prefixing keys with a 2-byte
// partition id — and written as a spill. If a chunk's output exceeds
// the buffer (C·Km > B_m), external sorting kicks in: spills form a
// multi-pass merge tree (the U2 term of Proposition 3.1) whose final
// merge produces the single sorted, partitioned map output.
//
// Reduce side: sorted segments arrive from mappers into a shuffle
// buffer of size B_r; when it fills, the buffered runs are merged
// (applying the combine function if the query has one) and spilled.
// A background process multi-pass-merges the on-disk files (the U4
// term, and the blocking I/O bottleneck of Fig 2). After all map
// output arrives, a final merge streams each key group to the reduce
// function.
package sortmerge

import (
	"encoding/binary"
	"fmt"

	"repro/internal/bytestore"
	"repro/internal/core"
	"repro/internal/hashfam"
	"repro/internal/kvenc"
	"repro/internal/merge"
	"repro/internal/mr"
	"repro/internal/storage"
)

// combineRuns is the pure merge + combine kernel of both sides: it
// merges sorted runs and applies the combine function to each group
// (keys minus their first skip bytes), into a pooled buffer of n pairs.
// The function runs on the compute pool, so like Map it must be
// receiver-pure.
func combineRuns(comb mr.Combiner, runs [][]byte, skip, size int, owner string) (out []byte, n int64) {
	out = bytestore.Get(size)
	g := kvenc.NewGroups(kvenc.NewMerger(runs))
	key, ok := g.NextGroup()
	emit := func(v []byte) {
		out = kvenc.AppendPair(out, key, v)
		n++
	}
	for ; ok; key, ok = g.NextGroup() {
		comb.Combine(key[skip:], g, emit)
	}
	if err := g.Err(); err != nil {
		panic(fmt.Errorf("sortmerge: corrupt run in %s combine: %w", owner, err))
	}
	return out, n
}

// MapCollectorConfig sizes the map-side collector.
type MapCollectorConfig struct {
	Prefix      string // names spill files (unique per task)
	Partitions  int    // R × nodes
	Buffer      int64  // B_m physical bytes
	MergeFactor int    // F
	ReadSegment int64

	// Push, when set, makes the collector MapReduce Online's (HOP,
	// §2.2): a full buffer is sorted, combined, split and pushed as its
	// own shuffle unit instead of being externally sorted — the merge
	// work moves to the reducers — and Finish pushes the rest and
	// returns no output.
	Push func(out core.MapParts)
}

// MapCollector is the sort-merge Map Output Buffer component. Its
// sort, combine and split are pure kernels priced by the buffered pair
// count, so they run offloaded beside their own CPU charge
// (substrate.Proc.Offload).
type MapCollector struct {
	rt   *core.Runtime
	cfg  MapCollectorConfig
	h1   hashfam.Func
	comb mr.Combiner

	buf     []byte // pooled collect buffer, handed back by Finish
	bufRecs int64
	pk      []byte // prefixKey scratch, reused across Add calls
	tree    *merge.Tree

	mapped  int64
	emitted int64
}

// NewMapCollector creates the collector. If q implements mr.Combiner,
// the combine function is applied to each sorted spill.
func NewMapCollector(rt *core.Runtime, q mr.Query, cfg MapCollectorConfig) *MapCollector {
	// The pooled collect buffer starts at B_m, capped at 1 MiB; past
	// that it grows by appending.
	c := &MapCollector{rt: rt, cfg: cfg, h1: rt.Fam.Fn(1), buf: bytestore.Get(int(min(cfg.Buffer, 1<<20)))}
	c.comb, _ = q.(mr.Combiner)
	return c
}

// Add collects one map output pair.
func (c *MapCollector) Add(key, val []byte) {
	c.mapped++
	// Keys collect under a 2-byte big-endian partition id, so one sort
	// orders by (partition, key), as Hadoop does. The scratch keeps the
	// per-record path allocation-free (AppendPair copies it at once).
	part := c.h1.Bucket(key, c.cfg.Partitions)
	c.pk = append(append(c.pk[:0], byte(part>>8), byte(part)), key...)
	c.buf = kvenc.AppendPair(c.buf, c.pk, val)
	c.bufRecs++
	if int64(len(c.buf)) >= c.cfg.Buffer {
		c.spill()
	}
}

// sortBuffer empties the collect buffer through fn(run, n) — its pairs
// sorted and combined, n of them, in a pooled buffer — on the compute
// pool, beside the sort and combine charges: functions of the buffered
// pair count (the combine function is handed every pair), known before
// the sort runs.
func (c *MapCollector) sortBuffer(fn func(run []byte, n int64)) {
	c.rt.P.Offload(func() {
		run, _ := kvenc.SortStreamTo(bytestore.Get(len(c.buf)), c.buf)
		n := c.bufRecs
		if c.comb != nil {
			sorted := run
			run, n = combineRuns(c.comb, [][]byte{sorted}, 2, len(sorted), c.cfg.Prefix)
			bytestore.Put(sorted)
		}
		fn(run, n)
		bytestore.Put(run)
	}, func() {
		c.rt.ChargeCPU(c.rt.Model.CPUSort(c.bufRecs))
		if c.comb != nil {
			c.rt.ChargeOps(c.rt.Model.CPUCombine, c.bufRecs)
		}
	})
	c.buf, c.bufRecs = c.buf[:0], 0 // collect buffer is recycled in place
}

// split empties the collect buffer into per-partition sorted segments.
func (c *MapCollector) split() (out core.MapParts, emitted int64) {
	c.sortBuffer(func(run []byte, n int64) { out, emitted = c.splitRun(run, n), n })
	return out, emitted
}

// splitRun cuts a run of n pairs sorted on (partition, key) into its
// per-partition segments, keys stripped of the partition prefix. The
// segments are written once, back to back, into a single buffer sized
// up front (two prefix bytes less per pair), so the map output file can
// adopt it whole.
func (c *MapCollector) splitRun(run []byte, n int64) core.MapParts {
	parts := c.cfg.Partitions
	backing := make([]byte, 0, len(run)-2*int(n))
	ends := make([]int, parts)
	counts := make([]int64, parts)
	it := kvenc.NewIterator(run)
	for pk, v, ok := it.Next(); ok; pk, v, ok = it.Next() {
		part := int(binary.BigEndian.Uint16(pk))
		backing = kvenc.AppendPair(backing, pk[2:], v)
		counts[part]++
		ends[part] = len(backing)
	}
	if err := it.Err(); err != nil {
		panic(fmt.Errorf("sortmerge: corrupt final run in %s: %w", c.cfg.Prefix, err))
	}
	out := core.MapParts{Segs: make([][][]byte, parts), Recs: make([][]int64, parts), Backing: backing}
	segs := make([][]byte, parts)
	start := 0
	for p, end := range ends {
		if counts[p] > 0 { // partitions appear in order: each starts where the last ended
			segs[p] = backing[start:end:end]
			out.Segs[p], out.Recs[p] = segs[p:p+1:p+1], counts[p:p+1:p+1]
			start = end
		}
	}
	return out
}

// spill empties a full buffer: pushed as a shuffle unit (HOP), or
// externally sorted — the buffer becomes an on-disk sorted run in the
// map-side multi-pass merge tree (this is the C·Km > B_m case).
func (c *MapCollector) spill() {
	if c.cfg.Push != nil {
		if len(c.buf) > 0 {
			out, n := c.split()
			c.emitted += n
			c.cfg.Push(out)
		}
		return
	}
	if c.tree == nil {
		c.tree = merge.NewTree(c.rt.Store, storage.MapSpill, c.cfg.Prefix, c.cfg.MergeFactor, c.cfg.ReadSegment)
	}
	var run storage.Taken
	defer run.Release() // if the charge panics before AddRun takes it
	var recs int64
	c.sortBuffer(func(pooled []byte, n int64) { run, recs = c.rt.Store.Stage(pooled), n })
	c.tree.AddRun(c.rt.P, &run, recs)
	c.tree.Complete(c.rt.P, mergeCharge(c.rt))
}

// mergeCharge bills rt one merge pass (read, compare, write) per call.
func mergeCharge(rt *core.Runtime) func(records int64) {
	return func(records int64) { rt.ChargeOps(rt.Model.CPUMergeRecord, records) }
}

// Finish sorts/merges everything and returns one sorted segment per
// partition plus (collected, emitted) record counts.
func (c *MapCollector) Finish() (out core.MapParts, mapped, emitted int64) {
	switch {
	case c.cfg.Push != nil:
		c.spill()
	case c.tree == nil:
		out, c.emitted = c.split()
	default:
		if len(c.buf) > 0 {
			c.spill()
		}
		c.tree.Complete(c.rt.P, mergeCharge(c.rt))
		runs, recs := c.tree.Runs(c.rt.P)
		c.emitted = recs
		c.rt.P.Offload(func() {
			var size int64
			for _, r := range runs {
				size += r.Size
			}
			final, err := kvenc.Merge(runs, nil).AppendTo(bytestore.Get(int(size)))
			if err != nil {
				panic(fmt.Errorf("sortmerge: corrupt spill run in %s: %w", c.cfg.Prefix, err))
			}
			out = c.splitRun(final, recs)
			bytestore.Put(final)
		}, func() { mergeCharge(c.rt)(recs) })
		c.tree.Drop()
	}
	bytestore.Put(c.buf)
	c.buf = nil
	return out, c.mapped, c.emitted
}

// ReducerConfig sizes the reduce side.
type ReducerConfig struct {
	Prefix      string
	Buffer      int64 // B_r physical bytes
	MergeFactor int   // F
	ReadSegment int64
}

// Reducer is the sort-merge reduce task: shuffle buffer, multi-pass
// merge tree, and the final merge feeding the reduce function.
type Reducer struct {
	rt   *core.Runtime
	q    mr.Query
	comb mr.Combiner
	cfg  ReducerConfig

	tree     *merge.Tree
	pages    [][]byte // shuffle buffer: pooled pages the fetched segments are copied into, handed back at each spill and by Finish
	views    [][]byte // the buffered runs in fetch order, each a view into one page
	buffered int64    // bytes in views
	bufRecs  int64    // pairs in views, as counted by the runs' producers

	prepared  bool
	finalRuns []kvenc.Spill
}

// NewReducer creates the reduce-side machinery. If q implements
// mr.Combiner the combine function is applied whenever the shuffle
// buffer is merged to a spill (§2.2).
func NewReducer(rt *core.Runtime, q mr.Query, cfg ReducerConfig) *Reducer {
	r := &Reducer{
		rt:   rt,
		q:    q,
		cfg:  cfg,
		tree: merge.NewTree(rt.Store, storage.ReduceSpill, cfg.Prefix, cfg.MergeFactor, cfg.ReadSegment),
	}
	r.comb, _ = q.(mr.Combiner)
	return r
}

// Consume accepts one sorted segment of n pairs fetched from a mapper.
// Hadoop merges the shuffle buffer to disk when it reaches about two
// thirds of its capacity (mapred.job.shuffle.merge.percent = 0.66), not
// when completely full — that is what determines the number of initial
// on-disk runs n in the paper's λ analysis. The segment is copied into
// the buffer's pages, so the caller's bytes are free once Consume returns.
func (r *Reducer) Consume(run []byte, n int64) {
	if len(run) == 0 {
		return
	}
	last := len(r.pages) - 1
	if last < 0 || len(r.pages[last])+len(run) > cap(r.pages[last]) {
		r.pages, last = append(r.pages, bytestore.Get(max(shufflePage, len(run)))), last+1
	}
	page := append(r.pages[last], run...) // within the page's capacity: earlier views stay put
	r.pages[last] = page
	r.views = append(r.views, page[len(page)-len(run):len(page):len(page)])
	r.buffered, r.bufRecs = r.buffered+int64(len(run)), r.bufRecs+n
	if r.buffered*3 >= r.cfg.Buffer*2 {
		r.spillBuffer()
	}
}

// shufflePage sizes the pages a reducer draws as it buffers, not B_r at
// once; a segment larger than one page gets a page of its own size.
const shufflePage = storage.ScratchPage

// emptyBuffer hands the shuffle buffer's pages back to the pool, once
// no merge reads the views into them.
func (r *Reducer) emptyBuffer() {
	for _, p := range r.pages {
		bytestore.Put(p)
	}
	clear(r.pages)
	clear(r.views)
	r.pages, r.views, r.buffered, r.bufRecs = r.pages[:0], r.views[:0], 0, 0
}

// spillBuffer merges the buffered sorted pieces (combining if
// possible) and writes the result as one on-disk run. The merge is a
// pure kernel priced by the buffered pair counts, so it runs offloaded
// beside its own charges.
func (r *Reducer) spillBuffer() {
	spillRuns := r.views
	var run storage.Taken
	defer run.Release() // if the charge panics before AddRun takes it
	records, n := r.bufRecs, r.bufRecs
	r.rt.P.Offload(func() {
		var pooled []byte
		if r.comb != nil {
			pooled, n = combineRuns(r.comb, spillRuns, 0, int(r.buffered), r.cfg.Prefix) // merge + combine in one pass
		} else {
			var err error
			if pooled, err = kvenc.MergeStreamTo(bytestore.Get(int(r.buffered)), spillRuns); err != nil {
				panic(fmt.Errorf("sortmerge: corrupt shuffled run in %s: %w", r.cfg.Prefix, err))
			}
		}
		run = r.rt.Store.Stage(pooled)
		bytestore.Put(pooled)
	}, func() {
		if r.comb != nil {
			// The combine function is handed every merged pair; combined
			// records count as progress (Definition 1's "combine function
			// completed").
			r.rt.FnRecords(records)
			r.rt.ChargeOps(r.rt.Model.CPUCombine, records)
		}
		mergeCharge(r.rt)(records)
	})
	r.emptyBuffer()
	r.tree.AddRun(r.rt.P, &run, n)
}

// MergeDue reports whether the background multi-pass merge trigger has
// fired; Merge drives the merge until it clears.
func (r *Reducer) MergeDue() bool { return r.tree.NeedsMerge() }

// Merge implements the other half of MergeDue.
func (r *Reducer) Merge() { r.tree.Complete(r.rt.P, mergeCharge(r.rt)) }

// PrepareFinal completes the remaining multi-pass merge and reads the
// final runs back — the blocking, I/O-heavy step the paper's timelines
// attribute to the "merge" phase. It is separated from Finish so the
// engine can meter the two phases independently.
func (r *Reducer) PrepareFinal() {
	if r.prepared {
		return
	}
	r.prepared = true
	r.tree.Complete(r.rt.P, mergeCharge(r.rt))
	r.finalRuns, _ = r.tree.Runs(r.rt.P)
}

// Finish performs the final merge that streams each key group to the
// reduce function — only now does the reduce function run, which is
// exactly the blocking behaviour the paper measures.
func (r *Reducer) Finish(out mr.OutputWriter) {
	r.PrepareFinal()
	r.rt.FnRecords(r.reduceRuns(r.finalRuns, r.views, out, "final run in "+r.cfg.Prefix))
	r.emptyBuffer()
	r.finalRuns, r.pages, r.views = nil, nil, nil
	r.tree.Drop()
}

// reduceBatchBytes closes a hand-off batch of the final reduce once it
// holds this much. Its pooled buffer has room for as much again, so
// only a single group emitting more than that regrows it.
const reduceBatchBytes = 32 << 10

// reduceBatch is one hand-off unit of the final reduce: a run of key
// groups reduced on the compute pool, waiting to take effect on the
// process. Each group is a header — the values its reduce call pulled
// (8 bytes), then the size of its outputs (4) — and the outputs as
// encoded pairs; the batch is the mr.OutputWriter the reduce function
// emits to.
type reduceBatch []byte

const groupHeader = 8 + 4

// Emit implements mr.OutputWriter.
func (b *reduceBatch) Emit(key, value []byte) { *b = kvenc.AppendPair(*b, key, value) }

// fill empties b and reduces the next groups of g into it until the
// batch closes or g drains (more is false). It runs on the compute
// pool: like Map and Combine, Reduce must be receiver-pure.
func (b *reduceBatch) fill(g *kvenc.Groups, q mr.Query) (more bool) {
	for *b = (*b)[:0]; len(*b) < reduceBatchBytes; {
		key, ok := g.NextGroup()
		if !ok {
			return false
		}
		hdr := len(*b)
		*b = append(*b, make([]byte, groupHeader)...)
		q.Reduce(key, g, b)
		binary.BigEndian.PutUint64((*b)[hdr:], uint64(g.N))
		binary.BigEndian.PutUint32((*b)[hdr+8:], uint32(len(*b)-hdr-groupHeader))
	}
	return true
}

// replay gives b's groups their effect on the process, in the order
// they were reduced: each group's outputs reach out, then its values
// are charged — what reducing group by group on the process does.
func (b reduceBatch) replay(out mr.OutputWriter, charge *core.Batcher) (records int64) {
	for len(b) > 0 {
		n, end := int64(binary.BigEndian.Uint64(b)), groupHeader+int(binary.BigEndian.Uint32(b[8:]))
		it := kvenc.NewIterator(b[groupHeader:end])
		for k, v, ok := it.Next(); ok; k, v, ok = it.Next() {
			out.Emit(k, v)
		}
		if err := it.Err(); err != nil {
			panic(fmt.Errorf("sortmerge: reduce batch holds a damaged output: %w", err))
		}
		records += n
		charge.Add(n)
		b = b[end:]
	}
	return records
}

// reduceRuns merges spills, then runs, and applies the reduce function
// to each key group, charging merge + reduce CPU in bounded bursts; it
// returns the records reduced. The merge and the reduce function run on
// the compute pool, one batch per Offload: batch n+1 is produced beside
// the replay of batch n, whose charges and output writes park this
// process. A closure ends with its batch, so it never waits on a process.
func (r *Reducer) reduceRuns(spills []kvenc.Spill, runs [][]byte, out mr.OutputWriter, what string) (records int64) {
	charge := r.rt.Batch(r.rt.Model.CPUMergeRecord + r.rt.Model.CPUReduceRec)
	g := kvenc.NewGroups(kvenc.Merge(spills, runs))
	cur, next := reduceBatch(bytestore.Get(2*reduceBatchBytes)), reduceBatch(bytestore.Get(2*reduceBatchBytes))
	// Offload has waited for its closure on every path out of it, a node
	// kill inside a replayed charge included: nothing writes the buffers.
	defer func() { bytestore.Put(cur); bytestore.Put(next) }()
	more := true
	produce := func() { more = next.fill(g, r.q) }
	replay := func() { records += cur.replay(out, charge) }
	for more {
		r.rt.P.Offload(produce, replay)
		cur, next = next, cur
	}
	replay()
	if err := g.Err(); err != nil {
		panic(fmt.Errorf("sortmerge: corrupt %s: %w", what, err))
	}
	charge.Flush()
	return records
}

// Snapshot merges everything received so far — re-reading the on-disk
// runs without consuming them — and applies the reduce function to the
// partial data, emitting an approximate snapshot (the MapReduce Online
// extension of §3.3(4)). Each call repeats the full merge, so frequent
// snapshots inflate I/O and running time, which is the paper's
// criticism of this approach to early answers.
func (r *Reducer) Snapshot(out mr.OutputWriter) {
	spills, _ := r.tree.Runs(r.rt.P)
	r.reduceRuns(spills, r.views, out, "run in "+r.cfg.Prefix+" snapshot")
}
