package core

import (
	"fmt"

	"repro/internal/bytestore"
	"repro/internal/kvenc"
	"repro/internal/mr"
)

// NodeCombiner is the in-node combine stage (Lee et al.'s in-node
// combiner): one hash table per node that absorbs every local map
// task's finished output and folds it into a single merged,
// partitioned run before anything enters the shuffle. It reuses the
// map collector's table machinery, but the inputs are already-encoded
// map output pairs — combined values, or merged states on the
// incremental platforms — so the fold is MergeStates (inc mode) or a
// per-key Combine over collected values (comb mode).
//
// Memory behaviour mirrors HashMapCollector: the table lives under a
// byte budget and on overflow the current contents are emitted as a
// finished segment per partition and the fold continues — the final
// run may carry several segments per partition, each internally
// duplicate-free. Absorb order is the caller's responsibility; both
// backends fold deposits in ascending chunk order, which makes the
// emitted runs and all derived counters bit-identical across
// substrates and worker counts.
type NodeCombiner struct {
	rt     *Runtime
	r      int // partitions (reducers)
	budget int64
	comb   mr.Combiner
	inc    mr.Incremental
	sorted bool // sort emitted segments by key (sort-merge reducers need sorted runs)

	table    *bytestore.Table
	inPairs  int64
	outPairs int64
	out      MapParts // finished segments per partition, with their pair counts

	pk []byte // partition-prefix scratch
}

// NewNodeCombiner creates the per-node fold for r partitions under the
// given byte budget. Mode selection matches NewHashMapCollector: on
// the incremental platforms a Combiner+Incremental query's map outputs
// are (key, state) pairs folded with MergeStates; otherwise the map
// outputs are (key, partial value) pairs folded with Combine. sorted
// requests key-sorted output segments (the sort-merge reducer consumes
// sorted runs; the hash reducers take any order).
//
// The caller must only construct one for combinable queries
// (mr.Combiner present); see engine.JobSpec.NodeCombineActive.
func NewNodeCombiner(rt *Runtime, q mr.Query, r int, budget int64, incremental, sorted bool) *NodeCombiner {
	nc := &NodeCombiner{
		rt:     rt,
		r:      r,
		budget: budget,
		sorted: sorted,
		out:    MapParts{Segs: make([][][]byte, r), Recs: make([][]int64, r)},
	}
	inc, isInc := q.(mr.Incremental)
	comb, isComb := q.(mr.Combiner)
	if !isComb {
		panic("core: NodeCombiner requires an mr.Combiner query")
	}
	if incremental && isInc {
		nc.inc = inc
	} else {
		nc.comb = comb
	}
	nc.table = bytestore.NewTable(rt.Fam.Fn(3), budget)
	return nc
}

// Absorb folds one map task's finished output (per-partition segment
// lists, the collector's Finish shape) into the node table and returns
// the number of pairs absorbed. The fold's CPU is charged by the
// caller per absorbed pair, so the engine keeps one place that knows
// the model's constants.
func (nc *NodeCombiner) Absorb(parts [][][]byte) int64 {
	var pairs int64
	for part, segs := range parts {
		for _, seg := range segs {
			it := kvenc.NewIterator(seg)
			for {
				key, val, ok := it.Next()
				if !ok {
					break
				}
				pairs++
				nc.add(part, key, val)
			}
			if err := it.Err(); err != nil {
				// The segments never left memory, so a kvenc-level
				// break is a combiner bug, not disk damage — fail
				// loudly.
				panic(fmt.Errorf("core: corrupt map output in node combine (partition %d): %w", part, err))
			}
		}
	}
	nc.inPairs += pairs
	return pairs
}

// add folds one pair into the table, flushing on budget overflow
// exactly like the map collector.
func (nc *NodeCombiner) add(part int, key, val []byte) {
	nc.pk = append(nc.pk[:0], byte(part>>8), byte(part))
	nc.pk = append(nc.pk, key...)
	pk := nc.pk
	if nc.inc != nil {
		cur, found, ok := nc.table.UpsertState(pk, len(val), nc.inc.StateSize())
		if !ok {
			nc.flushTable()
			cur, found, _ = nc.table.UpsertState(pk, len(val), nc.inc.StateSize())
		}
		if !found {
			copy(cur, val)
			return
		}
		merged := nc.inc.MergeStates(key, cur, val)
		if !nc.table.SetState(pk, merged) {
			// Arena exhausted by state growth: the flushed segment keeps
			// the key's previous partial state, the fresh slot holds only
			// the incoming one (same rule as the map collector).
			nc.flushTable()
			st2, _, _ := nc.table.UpsertState(pk, len(val), nc.inc.StateSize())
			copy(st2, val)
		}
		return
	}
	if !nc.table.AppendValue(pk, val) {
		nc.flushTable()
		nc.table.AppendValue(pk, val)
	}
}

// flushTable emits the table contents as one finished segment per
// partition and resets the table. Encoding runs on the compute pool
// (partitions are disjoint, entries keep table iteration order within
// each partition), so the segments are bytewise identical to a serial
// flush for any worker count. In sorted mode each segment is key-
// sorted before it is emitted (post-fold keys are unique per segment,
// so any stable sort yields a valid sort-merge run) and the sort CPU
// is charged here.
func (nc *NodeCombiner) flushTable() {
	type entry struct {
		key    []byte
		state  []byte
		values func(func([]byte))
	}
	perPart := make([][]entry, nc.r)
	nc.table.Range(func(pk, state []byte, values func(func(val []byte))) bool {
		part, key := splitPrefixed(pk)
		perPart[part] = append(perPart[part], entry{key: key, state: state, values: values})
		return true
	})
	segs := make([][]byte, nc.r)
	counts := make([]int64, nc.r)
	encode := func(part int) {
		var seg []byte
		var n int64
		for _, e := range perPart[part] {
			if nc.inc != nil {
				seg = kvenc.AppendPair(seg, e.key, e.state)
				n++
				continue
			}
			var vals [][]byte
			e.values(func(v []byte) { vals = append(vals, v) })
			nc.comb.Combine(e.key, &sliceIter{vals: vals}, func(v []byte) {
				seg = kvenc.AppendPair(seg, e.key, v)
				n++
			})
		}
		if nc.sorted && len(seg) > 0 {
			seg, _ = nc.rt.SortStream(seg)
		}
		segs[part], counts[part] = seg, n
	}
	// In sorted mode encode runs serially so SortStream can shard
	// each partition's sort onto the pool itself (no nested fan-out).
	if nc.rt.P != nil && !nc.sorted {
		nc.rt.P.ParallelFor(nc.r, encode)
	} else {
		for part := 0; part < nc.r; part++ {
			encode(part)
		}
	}
	for part, seg := range segs {
		if len(seg) > 0 {
			nc.out.Segs[part] = append(nc.out.Segs[part], seg)
			nc.out.Recs[part] = append(nc.out.Recs[part], counts[part])
		}
		if nc.sorted {
			nc.rt.ChargeCPU(nc.rt.Model.CPUSort(counts[part]))
		}
		nc.outPairs += counts[part]
	}
	nc.table = bytestore.NewTable(nc.rt.Fam.Fn(3), nc.budget)
}

// Finish flushes remaining table state and returns the merged run:
// per-partition segments plus the absorbed and emitted pair counts.
func (nc *NodeCombiner) Finish() (out MapParts, inPairs, outPairs int64) {
	nc.flushTable()
	return nc.out, nc.inPairs, nc.outPairs
}
