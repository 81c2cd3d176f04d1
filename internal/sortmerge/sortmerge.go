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
	"repro/internal/kvenc"
	"repro/internal/merge"
	"repro/internal/mr"
	"repro/internal/storage"
	"repro/internal/substrate"
)

// appendPrefixKey appends the 2-byte big-endian partition id followed
// by the key, so one sort orders by (partition, key), as Hadoop does.
// Appending into a per-collector scratch buffer keeps the per-record
// collect path allocation-free (the encoded pair is copied into the
// collect buffer immediately, so reusing the scratch is safe).
func appendPrefixKey(dst []byte, part int, key []byte) []byte {
	dst = append(dst, byte(part>>8), byte(part))
	return append(dst, key...)
}

func splitPrefixed(pk []byte) (part int, key []byte) {
	return int(binary.BigEndian.Uint16(pk)), pk[2:]
}

// charger adapts a task runtime to merge.CPUCharger.
type charger struct{ rt *core.Runtime }

// ChargeMerge implements merge.CPUCharger: one pass over physRecords.
func (c charger) ChargeMerge(_ substrate.Proc, physRecords int64) {
	c.rt.ChargeOps(c.rt.Model.CPUMergeRecord, physRecords)
}

// MapCollectorConfig sizes the map-side collector.
type MapCollectorConfig struct {
	Prefix      string // names spill files (unique per task)
	Partitions  int    // R × nodes
	Buffer      int64  // B_m physical bytes
	MergeFactor int    // F
	ReadSegment int64
}

// MapCollector is the sort-merge Map Output Buffer component.
type MapCollector struct {
	rt  *core.Runtime
	cfg MapCollectorConfig
	h1  interface {
		Bucket(key []byte, n int) int
	}
	comb mr.Combiner

	buf     []byte
	bufRecs int64
	pk      []byte // prefixKey scratch, reused across Add calls
	tree    *merge.Tree

	mapped  int64
	emitted int64
}

// NewMapCollector creates the collector. If q implements mr.Combiner,
// the combine function is applied to each sorted spill.
func NewMapCollector(rt *core.Runtime, q mr.Query, cfg MapCollectorConfig) *MapCollector {
	c := &MapCollector{rt: rt, cfg: cfg, h1: rt.Fam.Fn(1)}
	if comb, ok := q.(mr.Combiner); ok {
		c.comb = comb
	}
	return c
}

// Add collects one map output pair.
func (c *MapCollector) Add(key, val []byte) {
	c.mapped++
	part := c.h1.Bucket(key, c.cfg.Partitions)
	c.pk = appendPrefixKey(c.pk[:0], part, key)
	c.buf = kvenc.AppendPair(c.buf, c.pk, val)
	c.bufRecs++
	if int64(len(c.buf)) >= c.cfg.Buffer {
		c.spill()
	}
}

// sortBuffer sorts (and combines) the current buffer into a run,
// built in a recycled buffer the caller hands back with bytestore.Put
// once the run's bytes are copied out or consumed. The sort runs
// sharded on the kernel's compute pool (bytewise identical to a
// serial sort); the virtual CPU charge is unchanged.
func (c *MapCollector) sortBuffer() []byte {
	sorted, n := c.rt.SortStreamTo(bytestore.Get(len(c.buf)), c.buf)
	c.rt.ChargeCPU(c.rt.Model.CPUSort(int64(n)))
	if c.comb != nil {
		combined := c.combineRun(sorted)
		bytestore.Put(sorted)
		sorted = combined
	}
	c.buf = c.buf[:0] // collect buffer is recycled in place
	c.bufRecs = 0
	return sorted
}

// combineRun applies the combine function to each (partition, key)
// group of a sorted run, producing a recycled buffer.
func (c *MapCollector) combineRun(run []byte) []byte {
	out := bytestore.Get(len(run))
	var records int64
	if err := kvenc.MergeGroupsChecked([][]byte{run}, func(pk []byte, vals kvenc.ValueIter) bool {
		_, key := splitPrefixed(pk)
		grp := &kvenc.CountingIter{Inner: vals}
		c.comb.Combine(key, grp, func(v []byte) {
			out = kvenc.AppendPair(out, pk, v)
		})
		records += grp.N
		return true
	}); err != nil {
		panic(fmt.Errorf("sortmerge: corrupt run in %s combine: %w", c.cfg.Prefix, err))
	}
	c.rt.ChargeOps(c.rt.Model.CPUCombine, records)
	return out
}

// spill externally sorts: the buffer becomes an on-disk sorted run in
// the map-side multi-pass merge tree (this is the C·Km > B_m case).
func (c *MapCollector) spill() {
	if c.tree == nil {
		c.tree = merge.NewTree(c.rt.Store, storage.MapSpill, c.cfg.Prefix, c.cfg.MergeFactor, c.cfg.ReadSegment)
	}
	run := c.sortBuffer()
	c.tree.AddRun(c.rt.P, run) // AddRun writes (copies) the run to disk
	bytestore.Put(run)
	for c.tree.NeedsMerge() {
		c.tree.MergeOnce(c.rt.P, charger{c.rt})
	}
}

// Finish sorts/merges everything and returns one sorted segment per
// partition plus (collected, emitted) record counts. SpilledBytes
// reports the map-internal spill (U2).
func (c *MapCollector) Finish() (parts [][][]byte, mapped, emitted int64) {
	var final []byte
	if c.tree == nil {
		final = c.sortBuffer()
	} else {
		if len(c.buf) > 0 {
			run := c.sortBuffer()
			c.tree.AddRun(c.rt.P, run)
			bytestore.Put(run)
		}
		c.tree.Complete(c.rt.P, charger{c.rt})
		runs := c.tree.FinalRuns(c.rt.P)
		var total int
		for _, r := range runs {
			total += len(r)
		}
		var err error
		final, err = kvenc.MergeStreamTo(bytestore.Get(total), runs)
		if err != nil {
			panic(fmt.Errorf("sortmerge: corrupt spill run in %s: %w", c.cfg.Prefix, err))
		}
		for _, r := range runs {
			bytestore.Put(r)
		}
		c.rt.ChargeOps(c.rt.Model.CPUMergeRecord, int64(kvenc.Count(final)))
	}
	parts = make([][][]byte, c.cfg.Partitions)
	segs := make([][]byte, c.cfg.Partitions)
	it := kvenc.NewIterator(final)
	for {
		pk, v, ok := it.Next()
		if !ok {
			break
		}
		part, key := splitPrefixed(pk)
		segs[part] = kvenc.AppendPair(segs[part], key, v)
		c.emitted++
	}
	if err := it.Err(); err != nil {
		panic(fmt.Errorf("sortmerge: corrupt final run in %s: %w", c.cfg.Prefix, err))
	}
	bytestore.Put(final) // per-partition segments copied out above
	for p, s := range segs {
		if len(s) > 0 {
			parts[p] = [][]byte{s}
		}
	}
	return parts, c.mapped, c.emitted
}

// SpilledBytes returns the map-internal spill bytes (0 if the chunk's
// output fit the buffer).
func (c *MapCollector) SpilledBytes() int64 {
	if c.tree == nil {
		return 0
	}
	return c.tree.SpilledBytes()
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
	bufRuns  [][]byte
	bufRecs  []int64 // per buffered run, its record count (no combiner only)
	bufBytes int64

	prepared  bool
	finalRuns [][]byte
	treeRuns  int // leading finalRuns entries that are recycled buffers

	dropRunBug bool // planted MutationSpillDropRun (test-only, env-gated)
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
	if comb, ok := q.(mr.Combiner); ok {
		r.comb = comb
	}
	r.dropRunBug = mutationEnabled(MutationSpillDropRun)
	return r
}

// Consume accepts one sorted segment fetched from a mapper. Hadoop
// merges the shuffle buffer to disk when it reaches about two thirds
// of its capacity (mapred.job.shuffle.merge.percent = 0.66), not when
// completely full — that is what determines the number of initial
// on-disk runs n in the paper's λ analysis.
func (r *Reducer) Consume(run []byte) {
	if len(run) == 0 {
		return
	}
	r.bufRuns = append(r.bufRuns, run)
	if r.comb == nil { // the combiner path counts as it merges
		r.bufRecs = append(r.bufRecs, int64(kvenc.Count(run)))
	}
	r.bufBytes += int64(len(run))
	if r.bufBytes*3 >= r.cfg.Buffer*2 {
		r.spillBuffer()
	}
}

// spillBuffer merges the buffered sorted pieces (combining if
// possible) and writes the result as one on-disk run.
func (r *Reducer) spillBuffer() {
	if len(r.bufRuns) == 0 {
		return
	}
	spillRuns := r.bufRuns
	if r.dropRunBug && len(spillRuns) > 1 {
		// Planted off-by-one (MutationSpillDropRun): the newest buffered
		// run is excluded from the spill merge and its records are lost.
		spillRuns = spillRuns[:len(spillRuns)-1]
	}
	run := bytestore.Get(int(r.bufBytes))
	var records int64
	if r.comb != nil {
		// Merge + combine in one pass; combined records count as
		// progress (Definition 1's "combine function completed").
		if err := kvenc.MergeGroupsChecked(spillRuns, func(key []byte, vals kvenc.ValueIter) bool {
			grp := &kvenc.CountingIter{Inner: vals}
			r.comb.Combine(key, grp, func(v []byte) {
				run = kvenc.AppendPair(run, key, v)
			})
			records += grp.N
			return true
		}); err != nil {
			panic(fmt.Errorf("sortmerge: corrupt shuffled run in %s: %w", r.cfg.Prefix, err))
		}
		r.rt.FnRecords(records)
		r.rt.ChargeOps(r.rt.Model.CPUCombine, records)
	} else {
		var err error
		run, err = kvenc.MergeStreamTo(run, spillRuns)
		if err != nil {
			panic(fmt.Errorf("sortmerge: corrupt shuffled run in %s: %w", r.cfg.Prefix, err))
		}
		for _, n := range r.bufRecs[:len(spillRuns)] {
			records += n
		}
	}
	r.rt.ChargeOps(r.rt.Model.CPUMergeRecord, records)
	r.tree.AddRun(r.rt.P, run) // AddRun writes (copies) the run to disk
	bytestore.Put(run)
	// The buffered runs are shuffle segments shared with the engine's
	// map-output table — drop the references, never recycle them.
	r.bufRuns = r.bufRuns[:0]
	r.bufRecs = r.bufRecs[:0]
	r.bufBytes = 0
}

// Tree exposes the on-disk merge tree so the engine's background
// merger process can drive multi-pass merges while shuffling.
func (r *Reducer) Tree() *merge.Tree { return r.tree }

// Charger returns the CPU charger for background merges.
func (r *Reducer) Charger() merge.CPUCharger { return charger{r.rt} }

// SpilledBytes returns the reduce-internal spill (U4) written so far.
func (r *Reducer) SpilledBytes() int64 { return r.tree.SpilledBytes() }

// PrepareFinal completes the remaining multi-pass merge and reads the
// final runs back — the blocking, I/O-heavy step the paper's timelines
// attribute to the "merge" phase. It is separated from Finish so the
// engine can meter the two phases independently.
func (r *Reducer) PrepareFinal() {
	if r.prepared {
		return
	}
	r.prepared = true
	r.tree.Complete(r.rt.P, charger{r.rt})
	r.finalRuns = r.tree.FinalRuns(r.rt.P)
	r.treeRuns = len(r.finalRuns) // recyclable; the rest are shared shuffle segments
	r.finalRuns = append(r.finalRuns, r.bufRuns...)
	r.bufRuns = nil
}

// Finish performs the final merge that streams each key group to the
// reduce function — only now does the reduce function run, which is
// exactly the blocking behaviour the paper measures.
func (r *Reducer) Finish(out mr.OutputWriter) {
	r.PrepareFinal()
	runs := r.finalRuns
	r.finalRuns = nil
	var records int64
	batch := r.rt.Batch(r.rt.Model.CPUMergeRecord + r.rt.Model.CPUReduceRec)
	if err := kvenc.MergeGroupsChecked(runs, func(key []byte, vals kvenc.ValueIter) bool {
		grp := &kvenc.CountingIter{Inner: vals}
		r.q.Reduce(key, grp, out)
		records += grp.N
		batch.Add(grp.N)
		return true
	}); err != nil {
		panic(fmt.Errorf("sortmerge: corrupt final run in %s: %w", r.cfg.Prefix, err))
	}
	batch.Flush()
	r.rt.FnRecords(records)
	// Only the tree's own runs are recycled buffers; the trailing
	// entries alias shuffle segments owned by the engine.
	for _, run := range runs[:r.treeRuns] {
		bytestore.Put(run)
	}
	r.treeRuns = 0
}

// Snapshot merges everything received so far — re-reading the on-disk
// runs without consuming them — and applies the reduce function to the
// partial data, emitting an approximate snapshot (the MapReduce Online
// extension of §3.3(4)). Each call repeats the full merge, so frequent
// snapshots inflate I/O and running time, which is the paper's
// criticism of this approach to early answers.
func (r *Reducer) Snapshot(out mr.OutputWriter) {
	runs := r.tree.PeekRuns(r.rt.P)
	runs = append(runs, r.bufRuns...)
	var records int64
	batch := r.rt.Batch(r.rt.Model.CPUMergeRecord + r.rt.Model.CPUReduceRec)
	if err := kvenc.MergeGroupsChecked(runs, func(key []byte, vals kvenc.ValueIter) bool {
		grp := &kvenc.CountingIter{Inner: vals}
		r.q.Reduce(key, grp, out)
		records += grp.N
		batch.Add(grp.N)
		return true
	}); err != nil {
		panic(fmt.Errorf("sortmerge: corrupt run in %s snapshot: %w", r.cfg.Prefix, err))
	}
	batch.Flush()
}
