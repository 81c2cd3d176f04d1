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
	rt       *Runtime
	r        int // number of partitions (reducers)
	h1       hashfam.Func
	budget   int64
	comb     mr.Combiner
	inc      mr.Incremental
	initOnly mr.Incremental // init() applied per record, no map-side table
	mapped   int64          // records collected
	outRecs  int64          // records emitted to partitions (post-combine)

	// combining path
	table *bytestore.Table

	// raw path
	raw      []*bytestore.KVBuffer
	rawBytes int64

	pk []byte // partition-prefix scratch, reused across Add calls

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
	c := &HashMapCollector{
		rt:     rt,
		r:      r,
		h1:     rt.Fam.Fn(1),
		budget: budget,
		parts:  make([][][]byte, r),
	}
	inc, isInc := q.(mr.Incremental)
	comb, isComb := q.(mr.Combiner)
	switch {
	case incremental && isInc && isComb:
		c.inc = inc
	case incremental && isInc:
		c.initOnly = inc
	case isComb:
		c.comb = comb
	}
	c.reset()
	return c
}

// Combining reports whether the collector folds records map-side
// through a hash table (the engine uses it to pick the CPU cost per
// record); init-only pass-through does not count.
func (c *HashMapCollector) Combining() bool { return c.inc != nil || c.comb != nil }

func (c *HashMapCollector) reset() {
	if c.inc != nil || c.comb != nil {
		c.table = bytestore.NewTable(c.rt.Fam.Fn(2), c.budget)
		return
	}
	if c.raw == nil {
		c.raw = make([]*bytestore.KVBuffer, c.r)
		for i := range c.raw {
			c.raw[i] = bytestore.NewKVBuffer(c.budget)
		}
	}
	c.rawBytes = 0
}

// prefixKey prepends the 2-byte partition id, building the compound
// key in the collector's reused scratch buffer — safe because the
// table copies keys into its arena on insert and only reads the
// compound key transiently on lookup.
func (c *HashMapCollector) prefixKey(part int, key []byte) []byte {
	c.pk = append(c.pk[:0], byte(part>>8), byte(part))
	c.pk = append(c.pk, key...)
	return c.pk
}

// splitPrefixed strips the partition prefix.
func splitPrefixed(pk []byte) (part int, key []byte) {
	return int(binary.BigEndian.Uint16(pk)), pk[2:]
}

// Add collects one map-output pair.
func (c *HashMapCollector) Add(key, val []byte) {
	c.mapped++
	part := c.h1.Bucket(key, c.r)
	switch {
	case c.initOnly != nil:
		st := c.initOnly.Init(key, val)
		need := bytestore.PairBytes(len(key), len(st))
		if c.rawBytes+need > c.budget && c.rawBytes > 0 {
			c.flushRaw()
		}
		c.raw[part].Append(key, st)
		c.rawBytes += need
	case c.inc != nil:
		pk := c.prefixKey(part, key)
		st := c.inc.Init(key, val)
		cur, found, ok := c.table.UpsertState(pk, len(st), c.inc.StateSize())
		if !ok {
			c.flushTable()
			cur, found, _ = c.table.UpsertState(pk, len(st), c.inc.StateSize())
		}
		if !found {
			copy(cur, st)
			return
		}
		merged := c.inc.MergeStates(key, cur, st)
		if !c.table.SetState(pk, merged) {
			// Arena exhausted by state growth. The flushed segment
			// already carries the key's previous partial state, so the
			// fresh slot must hold only the incoming increment —
			// otherwise the old clicks would be emitted twice.
			c.flushTable()
			st2, _, _ := c.table.UpsertState(pk, len(st), c.inc.StateSize())
			copy(st2, st)
		}
	case c.comb != nil:
		pk := c.prefixKey(part, key)
		if !c.table.AppendValue(pk, val) {
			c.flushTable()
			c.table.AppendValue(pk, val)
		}
	default:
		need := bytestore.PairBytes(len(key), len(val))
		if c.rawBytes+need > c.budget && c.rawBytes > 0 {
			c.flushRaw()
		}
		c.raw[part].Append(key, val)
		c.rawBytes += need
	}
}

// flushTable emits the table contents as one finished segment per
// partition and resets the table. The table walk is serial (it owns
// the iteration cursor), but the per-partition combine + encode work
// runs on the kernel's compute pool: partitions are disjoint, entries
// keep table iteration order within each partition, and the table is
// only read until reset — so the emitted segments are bytewise
// identical to a serial flush for any worker count.
func (c *HashMapCollector) flushTable() {
	type entry struct {
		key    []byte
		state  []byte
		values func(func([]byte))
	}
	perPart := make([][]entry, c.r)
	c.table.Range(func(pk, state []byte, values func(func([]byte))) bool {
		part, key := splitPrefixed(pk)
		perPart[part] = append(perPart[part], entry{key: key, state: state, values: values})
		return true
	})
	segs := make([][]byte, c.r)
	counts := make([]int64, c.r)
	encode := func(part int) {
		var seg []byte
		var n int64
		for _, e := range perPart[part] {
			if c.inc != nil {
				seg = kvenc.AppendPair(seg, e.key, e.state)
				n++
				continue
			}
			// Combine the collected values into (usually) one.
			var vals [][]byte
			e.values(func(v []byte) { vals = append(vals, v) })
			c.comb.Combine(e.key, &sliceIter{vals: vals}, func(v []byte) {
				seg = kvenc.AppendPair(seg, e.key, v)
				n++
			})
		}
		segs[part], counts[part] = seg, n
	}
	if c.rt.P != nil {
		c.rt.P.ParallelFor(c.r, encode)
	} else {
		for part := 0; part < c.r; part++ {
			encode(part)
		}
	}
	for _, n := range counts {
		c.outRecs += n
	}
	c.appendSegments(segs)
	c.reset()
}

// flushRaw emits the raw per-partition buffers as segments.
func (c *HashMapCollector) flushRaw() {
	segs := make([][]byte, c.r)
	for i, buf := range c.raw {
		if buf.Len() > 0 {
			segs[i] = append([]byte(nil), buf.Bytes()...)
			c.outRecs += int64(buf.Len())
			buf.Reset()
		}
	}
	c.appendSegments(segs)
	c.rawBytes = 0
}

// appendSegments stores finished segments. When a chunk's output
// exceeds the map buffer the collector simply emits multiple segments
// per partition — no external sort, no merge, no extra spill: this is
// exactly the U2 cost the hash framework eliminates (§4.1). All
// segments are written once to the map output file by the engine.
func (c *HashMapCollector) appendSegments(segs [][]byte) {
	for part, s := range segs {
		if len(s) > 0 {
			c.parts[part] = append(c.parts[part], s)
		}
	}
}

// Finish flushes remaining state and returns the per-partition
// segments plus the record counts (collected, emitted).
func (c *HashMapCollector) Finish() (out MapParts, mapped, emitted int64) {
	if c.inc != nil || c.comb != nil {
		c.flushTable()
	} else {
		c.flushRaw()
	}
	return MapParts{Segs: c.parts}, c.mapped, c.outRecs
}

// sliceIter adapts [][]byte to kvenc.ValueIter.
type sliceIter struct {
	vals [][]byte
	i    int
}

// Next implements kvenc.ValueIter.
func (s *sliceIter) Next() ([]byte, bool) {
	if s.i >= len(s.vals) {
		return nil, false
	}
	v := s.vals[s.i]
	s.i++
	return v, true
}
