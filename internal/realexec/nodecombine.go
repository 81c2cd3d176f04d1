// In-node combining on the wall-clock backend.
//
// The real substrate mirrors the engine's combine stage
// (engine/nodecombine.go) at its map barrier: eligible map tasks keep
// their finished output in memory instead of publishing a shuffle
// unit, and after the barrier each aggregation group folds its
// members' outputs — tier 1 per node in ascending chunk order, tier 2
// across member nodes in ascending node order — through the same
// core.NodeCombiner with the same budget, hash function, and CPU
// rates, so the published runs and every derived counter are
// bit-identical to the engine's on fault-free plans.
//
// Fault scope differs from the DES by design: the engine falls back
// to per-task publication under any fault plan, while this backend
// folds whenever the covered outputs provably survive to the barrier.
// Kills here are anchored to map progress (pre-barrier), so a chunk
// is excluded — published solo, exactly like a combine-off run — only
// when its home node dies (its output is lost or displaced) or when a
// speculative backup races it (the winning node is timing-dependent).
// Everything else, injected map failures included, combines: the
// winning attempt's node and output are a pure function of the spec.
package realexec

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/dfs"
	"repro/internal/engine"
	"repro/internal/storage"
	"repro/internal/substrate"
)

// rcGroup is one aggregation group: a single node when AggFanIn ≤ 1,
// or AggFanIn consecutive nodes folded by the first member.
type rcGroup struct {
	idx     int
	members []int   // member node indices with ≥1 eligible chunk, ascending
	chunks  [][]int // per member: covered chunks, ascending
	chunk0  int     // smallest covered chunk (orders the published unit)
}

// rcResult is one group's fold outcome: the published unit plus the
// accounting the report folds in group order.
type rcResult struct {
	store  *storage.Store
	node   int // serving (first member) node
	ledger int64
	unit   *unit

	inPairs   int64 // map output pairs absorbed at tier 1
	outPairs  int64 // pairs in the published run
	deposited int64 // physical bytes parked by member map tasks
	published int64 // physical bytes of the published run
	spans     []engine.Span
	err       error
}

// rcombine is the barrier-time combine plan.
type rcombine struct {
	r      *run
	elig   []bool // per chunk: output deposits instead of publishing
	groups []*rcGroup
}

// newRCombine derives the eligible chunk set and aggregation groups
// from the same DFS assignment the map fan-out uses.
func newRCombine(r *run, assign dfs.Assignment) *rcombine {
	rc := &rcombine{r: r, elig: make([]bool, r.totalMaps)}
	perNode := make([][]int, r.spec.Cluster.Nodes)
	for c := 0; c < r.totalMaps; c++ {
		n := assign.Node(c)
		if !rc.eligible(c, n) {
			continue
		}
		rc.elig[c] = true
		perNode[n] = append(perNode[n], c)
	}
	fanIn := r.spec.AggFanIn
	if fanIn < 1 {
		fanIn = 1
	}
	for base := 0; base < len(perNode); base += fanIn {
		g := &rcGroup{chunk0: r.totalMaps}
		for i := base; i < base+fanIn && i < len(perNode); i++ {
			if len(perNode[i]) == 0 {
				continue
			}
			g.members = append(g.members, i)
			g.chunks = append(g.chunks, perNode[i])
			if perNode[i][0] < g.chunk0 {
				g.chunk0 = perNode[i][0]
			}
		}
		if len(g.members) == 0 {
			continue
		}
		g.idx = len(rc.groups)
		rc.groups = append(rc.groups, g)
	}
	return rc
}

// eligible reports whether the chunk's output deterministically
// survives on its home node to the barrier. The speculation clause
// mirrors runMapChain's backup-launch condition exactly: a chunk that
// races a backup publishes from a timing-dependent node and must stay
// solo.
func (rc *rcombine) eligible(chunk, node int) bool {
	f := rc.r.flt
	if f.dies(node) {
		return false // output lost at the kill, or task displaced
	}
	sp := &rc.r.spec.Faults
	if sp.Speculate && sp.SlowNodes[node] > 1 && sp.MapFailures[chunk] == 0 &&
		f.backupNode(node) >= 0 {
		return false
	}
	return true
}

// fold runs every group's fold on the worker pool and returns the
// results in group order (the order the report sums them in).
func (rc *rcombine) fold(mapRes []*mapResult, workers int) []*rcResult {
	out := make([]*rcResult, len(rc.groups))
	forEach(workers, len(rc.groups), func(gi int) {
		out[gi] = rc.foldGroup(rc.groups[gi], mapRes)
	})
	return out
}

// foldGroup folds one group: tier 1 builds each member node's merged
// run from its deposited map outputs, tier 2 (>1 member) folds the
// member runs on the first member, and the single resulting run is
// published as one shuffle unit. The combiner charges the fold CPU into
// the group's ledger, which the report adds to map CPU.
func (rc *rcombine) foldGroup(g *rcGroup, mapRes []*mapResult) (res *rcResult) {
	r := rc.r
	res = &rcResult{node: g.members[0]}
	defer func() {
		if rec := recover(); rec != nil {
			res.err = fmt.Errorf("realexec: node combine group %d: %v", g.idx, rec)
		}
	}()
	p := substrate.NewWallProc(r.start)
	st := r.newStore(res.node)
	res.store = st
	rt := r.newRuntime(p, st, &res.ledger)

	// Tier 1: per member node, ascending chunk order.
	runs := make([]core.MapParts, len(g.members))
	runPairs := make([]int64, len(g.members))
	for mi, node := range g.members {
		tstart := p.Now()
		nc := r.newNodeCombiner(rt)
		for _, chunk := range g.chunks[mi] {
			parts := mapRes[chunk].parts
			mapRes[chunk].parts = nil
			res.deposited += engine.PartsBytes(parts)
			nc.Absorb(parts)
		}
		var inPairs int64
		runs[mi], inPairs, runPairs[mi] = nc.Finish()
		res.inPairs += inPairs
		res.spans = append(res.spans, engine.Span{
			Name: fmt.Sprintf("ncomb.n%03d", node), Kind: "combine", Node: node,
			Start: time.Duration(tstart), End: time.Duration(p.Now()),
		})
	}

	// Tier 2: fold the member runs on the first member. Tier-2 pairs do
	// not count as combine input — that counter means "map output pairs
	// absorbed", and they already were at tier 1.
	final, finalPairs := runs[0], runPairs[0]
	if len(g.members) > 1 {
		tstart := p.Now()
		nc := r.newNodeCombiner(rt)
		for mi := range g.members {
			nc.Absorb(runs[mi].Segs)
			runs[mi] = core.MapParts{}
		}
		final, _, finalPairs = nc.Finish()
		res.spans = append(res.spans, engine.Span{
			Name: fmt.Sprintf("ncagg.g%03d", g.idx), Kind: "combine-agg", Node: res.node,
			Start: time.Duration(tstart), End: time.Duration(p.Now()),
		})
	}

	res.unit = r.publish(p, st, fmt.Sprintf("ncomb.g%03d.out", g.idx), g.chunk0, 0, final)
	for _, b := range res.unit.partBytes {
		res.published += b
	}
	res.outPairs = finalPairs
	return res
}

// newNodeCombiner builds the shared fold configured exactly like the
// engine's: same hash function slot, same byte budget, merged states
// on the incremental platforms, key-sorted segments for sort-merge.
// Each combiner gets a fresh query instance (the factory contract).
func (r *run) newNodeCombiner(rt *core.Runtime) *core.NodeCombiner {
	return core.NewNodeCombiner(rt, r.newQ(), r.numReducers, r.spec.Cluster.MapBuffer,
		r.spec.Platform.Incremental(), r.spec.Platform == engine.SortMerge)
}
