package core

import (
	"encoding/binary"

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
	rt      *Runtime
	r       int // number of partitions (reducers)
	h1      hashfam.Func
	budget  int64
	init    mr.Incremental // init() applied per record (incremental platforms)
	mapped  int64          // records collected
	outRecs int64          // records emitted to partitions (post-combine)

	fold *foldTable // combining path; nil when pairs pass through
	st   []byte     // init() result, reused across Add calls

	// pass-through path: pairs are staged in arrival order and
	// scattered by partition when the buffer flushes; both staging
	// buffers are pooled and handed back by Finish
	stage    []byte
	stageIdx []byte // per staged pair: its partition and end offset in stage, uint32 each
	flushes  int
	backing  []byte // the last flush's buffer: the output's backing if it was the only one

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
	c := &HashMapCollector{rt: rt, r: r, h1: rt.Fam.Fn(1), budget: budget, parts: make([][][]byte, r)}
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
	} else {
		// Starts at B_m, capped at 1 MiB; past that it grows in the pool.
		c.stage = bytestore.Get(int(min(budget, 1<<20)))
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
	c.stage = kvenc.AppendPair(bytestore.Grow(c.stage, int(bytestore.PairBytes(len(key), len(val)))), key, val)
	c.stageIdx = binary.LittleEndian.AppendUint32(bytestore.Grow(c.stageIdx, 8), uint32(part))
	c.stageIdx = binary.LittleEndian.AppendUint32(c.stageIdx, uint32(len(c.stage)))
}

// staged returns the partition and the end offset in stage of staged
// pair i.
func (c *HashMapCollector) staged(i int) (part, end int) {
	e := c.stageIdx[8*i:]
	return int(binary.LittleEndian.Uint32(e)), int(binary.LittleEndian.Uint32(e[4:]))
}

// flushRaw emits the staged pairs as one segment per partition: the
// partitions are sized from the staged offsets and the pairs scattered
// once, in arrival order, into a single buffer (Runtime.NewBacking), so
// the segments are its adjacent ranges in partition order.
func (c *HashMapCollector) flushRaw() {
	pairs := len(c.stageIdx) / 8
	if pairs == 0 {
		return
	}
	backing := c.rt.NewBacking(len(c.stage))
	segs := make([][]byte, c.r)
	start := 0
	for i := range pairs {
		part, end := c.staged(i)
		segs[part] = backing[:len(segs[part])+end-start]
		start = end
	}
	off := 0
	for part, seg := range segs {
		segs[part] = backing[off : off : off+len(seg)]
		off += len(seg)
	}
	start = 0
	for i := range pairs {
		part, end := c.staged(i)
		segs[part] = append(segs[part], c.stage[start:end]...)
		start = end
	}
	c.outRecs += int64(pairs)
	c.appendSegments(segs)
	c.flushes++
	c.backing = backing
	c.stage, c.stageIdx = c.stage[:0], c.stageIdx[:0]
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
		bytestore.Put(c.stageIdx)
		c.stage, c.stageIdx = nil, nil
	}
	out.Segs = c.parts
	if c.flushes == 1 {
		out.Backing = c.backing
	}
	return out, c.mapped, c.outRecs
}
