package core

import (
	"fmt"

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
	rt       *Runtime
	fold     foldTable
	inPairs  int64
	outPairs int64
	out      MapParts // finished segments per partition, with their pair counts
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
	nc := &NodeCombiner{rt: rt, out: MapParts{Segs: make([][][]byte, r), Recs: make([][]int64, r)}}
	inc, isInc := q.(mr.Incremental)
	comb, isComb := q.(mr.Combiner)
	if !isComb {
		panic("core: NodeCombiner requires an mr.Combiner query")
	}
	nc.fold = foldTable{r: r, budget: budget, h: rt.Fam.Fn(3), comb: comb, sorted: sorted, emit: nc.emit}
	if incremental && isInc {
		nc.fold.inc = inc
	}
	return nc
}

// Absorb folds one map task's finished output (per-partition segment
// lists, the collector's Finish shape) into the node table, charges
// the fold's CPU — one hash insert plus one combine per absorbed pair,
// the rate the map side pays for its hash-combining collector.
func (nc *NodeCombiner) Absorb(parts [][][]byte) {
	var pairs int64
	for part, segs := range parts {
		for _, seg := range segs {
			it := kvenc.NewIterator(seg)
			for key, val, ok := it.Next(); ok; key, val, ok = it.Next() {
				pairs++
				nc.fold.add(part, key, val)
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
	nc.rt.ChargeOps(nc.rt.Model.CPUHashInsert+nc.rt.Model.CPUCombine, pairs)
}

// emit stores one flush of the table; in sorted mode the sort CPU of
// each segment is charged here.
func (nc *NodeCombiner) emit(segs [][]byte, counts []int64) {
	for part, seg := range segs {
		if len(seg) > 0 {
			nc.out.Segs[part] = append(nc.out.Segs[part], seg)
			nc.out.Recs[part] = append(nc.out.Recs[part], counts[part])
		}
		if nc.fold.sorted {
			nc.rt.ChargeCPU(nc.rt.Model.CPUSort(counts[part]))
		}
		nc.outPairs += counts[part]
	}
}

// Finish flushes remaining table state and returns the merged run:
// per-partition segments plus the absorbed and emitted pair counts.
func (nc *NodeCombiner) Finish() (out MapParts, inPairs, outPairs int64) {
	nc.fold.flush()
	return nc.out, nc.inPairs, nc.outPairs
}
