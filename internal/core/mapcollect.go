package core

import (
	"repro/internal/bytestore"
	"repro/internal/hashfam"
	"repro/internal/kvenc"
	"repro/internal/mr"
)

// HashMapCollector is the sort-free map output component (§5
// "Hash-based Map Output"). It partitions pairs with h1 and, when the
// query admits it, applies the combine/initialize function through an
// in-memory hash table, so the CPU cost of map-side sorting is
// eliminated entirely.
//
// Memory behaviour mirrors the prototype: everything lives in a
// byte-array table/buffer with budget B_m. If a chunk's output exceeds
// the budget (C·Km > B_m), the collector emits the current content as
// a finished segment and continues — hash map output never needs the
// external sort-and-merge that the sort-merge collector pays for.
type HashMapCollector struct {
	r       int // number of partitions (reducers)
	h1      hashfam.Func
	budget  int64
	init    mr.Incremental // init() applied per record (incremental platforms)
	mapped  int64          // records collected
	outRecs int64          // records emitted to partitions (post-combine)

	fold *foldTable // combining path; nil when pairs pass through
	st   []byte     // init() result, reused across Add calls

	// pass-through path: pairs are staged in arrival order and
	// scattered by partition when the buffer flushes
	stage     []byte  // pooled staging buffer, handed back by Finish
	stagePart []int32 // partition of each staged pair
	stageEnd  []int   // end offset of each staged pair in stage
	cursor    []int   // per-partition sizes, then write offsets, of a flush
	flushes   int
	backing   []byte // the last flush's buffer: the output's backing if it was the only one

	parts [][][]byte // finished segments per partition
}

// NewHashMapCollector creates a collector for r partitions with map
// buffer budget (physical bytes).
//
// Mode selection follows the paper's §5 rule — "whenever a combine
// function is used, our Hash-based Map Output component builds an
// in-memory hash table": on the incremental platforms, a query with a
// combine function gets map-side state merging; an incremental query
// without one (sessionization: every record must survive, so merging
// compacts nothing) has init() applied per record with the states
// passed straight through, grouped only by partition. On MR-hash, a
// combine function gets the per-key value table; otherwise records
// pass through grouped by partition.
func NewHashMapCollector(rt *Runtime, q mr.Query, r int, budget int64, incremental bool) *HashMapCollector {
	c := &HashMapCollector{r: r, h1: rt.Fam.Fn(1), budget: budget, parts: make([][][]byte, r)}
	inc, isInc := q.(mr.Incremental)
	comb, isComb := q.(mr.Combiner)
	if incremental && isInc {
		c.init = inc
	}
	if isComb {
		c.fold = &foldTable{r: r, budget: budget, h: rt.Fam.Fn(2), inc: c.init, comb: comb,
			emit: func(segs [][]byte, counts []int64) {
				for _, n := range counts {
					c.outRecs += n
				}
				c.appendSegments(segs)
			}}
		c.fold.reset()
	} else {
		// Starts at B_m, capped at 1 MiB; past that it grows by appending.
		c.stage = bytestore.Get(int(min(budget, 1<<20)))
		c.cursor = make([]int, r)
	}
	return c
}

// Combining reports whether the collector folds records map-side
// through a hash table (the engine uses it to pick the CPU cost per
// record); init-only pass-through does not count.
func (c *HashMapCollector) Combining() bool { return c.fold != nil }

// Add collects one map-output pair.
func (c *HashMapCollector) Add(key, val []byte) {
	c.mapped++
	part := c.h1.Bucket(key, c.r)
	if c.init != nil {
		c.st = c.init.Init(c.st[:0], key, val)
		val = c.st
	}
	if c.fold != nil {
		c.fold.add(part, key, val)
		return
	}
	if int64(len(c.stage))+bytestore.PairBytes(len(key), len(val)) > c.budget && len(c.stage) > 0 {
		c.flushRaw()
	}
	c.stage = kvenc.AppendPair(c.stage, key, val)
	c.stagePart = append(c.stagePart, int32(part))
	c.stageEnd = append(c.stageEnd, len(c.stage))
}

// flushRaw emits the staged pairs as one segment per partition: the
// partitions are sized from the staged offsets and the pairs scattered
// once, in arrival order, into a single exact-size buffer, so the
// segments are its adjacent ranges in partition order.
func (c *HashMapCollector) flushRaw() {
	if len(c.stageEnd) == 0 {
		return
	}
	clear(c.cursor)
	start := 0
	for i, end := range c.stageEnd {
		c.cursor[c.stagePart[i]] += end - start
		start = end
	}
	backing := make([]byte, len(c.stage))
	segs := make([][]byte, c.r)
	off := 0
	for part, n := range c.cursor {
		segs[part] = backing[off : off+n : off+n]
		c.cursor[part] = off
		off += n
	}
	start = 0
	for i, end := range c.stageEnd {
		part := c.stagePart[i]
		c.cursor[part] += copy(backing[c.cursor[part]:], c.stage[start:end])
		start = end
	}
	c.outRecs += int64(len(c.stageEnd))
	c.appendSegments(segs)
	c.flushes++
	c.backing = backing
	c.stage, c.stagePart, c.stageEnd = c.stage[:0], c.stagePart[:0], c.stageEnd[:0]
}

// appendSegments stores one flush's segments, one per partition. When
// a chunk's output exceeds the map buffer the collector simply emits
// multiple segments per partition — no external sort, no merge, no
// extra spill: this is exactly the U2 cost the hash framework
// eliminates (§4.1). All segments are written once to the map output
// file by the engine. A partition's first segment is a window of the
// flush's own slice, so the usual single flush allocates no lists.
func (c *HashMapCollector) appendSegments(segs [][]byte) {
	for part, s := range segs {
		switch {
		case len(s) == 0:
		case c.parts[part] == nil:
			c.parts[part] = segs[part : part+1 : part+1]
		default:
			c.parts[part] = append(c.parts[part], s)
		}
	}
}

// Finish flushes remaining state and returns the per-partition
// segments plus the record counts (collected, emitted). A pass-through
// task that flushed once hands its scatter buffer over as the output's
// backing; one that flushed more keeps the file's gather.
func (c *HashMapCollector) Finish() (out MapParts, mapped, emitted int64) {
	if c.fold != nil {
		c.fold.flush()
	} else {
		c.flushRaw()
		bytestore.Put(c.stage)
		c.stage = nil
	}
	out.Segs = c.parts
	if c.flushes == 1 {
		out.Backing = c.backing
	}
	return out, c.mapped, c.outRecs
}
