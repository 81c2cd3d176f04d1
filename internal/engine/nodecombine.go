package engine

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/dfs"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// This file is the engine-side half of the in-node combine stage (the
// tree aggregation of Lee et al.): map tasks on a combining run deposit
// their finished output at their node's combiner instead of publishing
// it, the node's last task triggers a fold of all local deposits into
// one merged partitioned run (core.NodeCombiner), and — when AggFanIn
// groups several nodes under one aggregator — a second fold collapses
// the group's node runs before anything enters the shuffle.
//
// The stage only runs on fault-free plans (checkpointing included):
// under any fault plan the spec resolves to per-task publication, which
// keeps loss recovery per-task and makes combining a counter-exact
// no-op there. Deposits fold in ascending chunk order and groups in
// ascending node order, so the published runs and every derived counter
// are bit-identical across worker counts and substrates.

// ncDeposit is one map task's finished output parked at its node's
// combiner instead of entering the shuffle.
type ncDeposit struct {
	chunk int
	parts [][][]byte // the output's segments; the fold counts pairs itself
	bytes int64      // physical encoded bytes across all partitions
}

// ncRun is one folded run (tier 1: a node's deposits; tier 2: a
// group's node runs) awaiting aggregation or publication.
type ncRun struct {
	parts    core.MapParts
	outPairs int64
	bytes    int64
}

// ncNode is the per-node tier of the plan.
type ncNode struct {
	node     *node
	expect   int // map tasks assigned to this node
	deposits []*ncDeposit
	run      *ncRun
}

// ncGroup is one aggregation group: a single node when AggFanIn ≤ 1,
// or AggFanIn consecutive nodes folded by the first member.
type ncGroup struct {
	idx       int
	members   []*ncNode // members with at least one map task, ascending
	tasks     []int     // covered map tasks, ascending
	runs      int       // tier-1 runs completed
	deposited int64     // physical map-output bytes parked across members
}

// combinePlan routes deposits to nodes and groups and triggers the
// folds. All mutation happens on job processes under the DES kernel,
// so no locking is needed and every trigger point is deterministic.
type combinePlan struct {
	j       *job
	byNode  []*ncNode
	groups  []*ncGroup
	groupOf []*ncGroup // node idx → group
}

// newCombinePlan derives the expected deposit sets from the same DFS
// assignment the map spawner uses, and the aggregation groups from
// AggFanIn (consecutive node indices, first member aggregates).
func newCombinePlan(j *job, assign dfs.Assignment) *combinePlan {
	pl := &combinePlan{j: j}
	pl.byNode = make([]*ncNode, len(j.nodes))
	pl.groupOf = make([]*ncGroup, len(j.nodes))
	for i, n := range j.nodes {
		pl.byNode[i] = &ncNode{node: n}
	}
	for c := 0; c < j.totalMaps; c++ {
		pl.byNode[assign.Node(c)].expect++
	}
	fanIn := j.spec.AggFanIn
	if fanIn < 1 {
		fanIn = 1
	}
	for base := 0; base < len(j.nodes); base += fanIn {
		g := &ncGroup{idx: len(pl.groups)}
		for i := base; i < base+fanIn && i < len(j.nodes); i++ {
			pl.groupOf[i] = g
			if pl.byNode[i].expect > 0 {
				g.members = append(g.members, pl.byNode[i])
			}
		}
		if len(g.members) == 0 {
			continue
		}
		pl.groups = append(pl.groups, g)
		g.idx = len(pl.groups) - 1
	}
	for c := 0; c < j.totalMaps; c++ {
		g := pl.groupOf[assign.Node(c)]
		g.tasks = append(g.tasks, c)
	}
	return pl
}

// deposit parks one finished map task output at its node's combiner.
// The node's last deposit spawns the node fold.
func (pl *combinePlan) deposit(chunk int, n *node, parts [][][]byte) {
	d := &ncDeposit{chunk: chunk, parts: parts, bytes: PartsBytes(parts)}
	nn := pl.byNode[n.idx]
	nn.deposits = append(nn.deposits, d)
	pl.groupOf[n.idx].deposited += d.bytes
	if len(nn.deposits) < nn.expect {
		return
	}
	pl.j.k.Spawn(fmt.Sprintf("ncomb.n%03d", n.idx), func(p *sim.Proc) {
		pl.foldNode(p, nn)
	})
}

// foldNode is tier 1: fold the node's deposits, in ascending chunk
// order, into one merged partitioned run. The combiner charges the fold
// CPU on the node through its runtime.
func (pl *combinePlan) foldNode(p *sim.Proc, nn *ncNode) {
	j := pl.j
	start := p.Now()
	j.gauges.Enter(metrics.PhaseMap)
	defer j.gauges.Leave(metrics.PhaseMap)
	defer func() { j.addSpan(p.Name(), "combine", nn.node.idx, start, p.Now()) }()

	slices.SortFunc(nn.deposits, func(a, b *ncDeposit) int { return a.chunk - b.chunk })
	var ledger int64
	nc := j.newNodeCombiner(p, nn.node, &ledger)
	for _, d := range nn.deposits {
		nc.Absorb(d.parts)
		d.parts = nil
	}
	nn.deposits = nil
	parts, inPairs, outPairs := nc.Finish()
	j.ncInRecords += inPairs
	nn.run = &ncRun{parts: parts, outPairs: outPairs, bytes: PartsBytes(parts.Segs)}
	j.mapCPU += ledger

	g := pl.groupOf[nn.node.idx]
	g.runs++
	if g.runs < len(g.members) {
		return
	}
	if len(g.members) == 1 {
		pl.publishRun(p, g, nn.node, nn.run)
		return
	}
	j.k.Spawn(fmt.Sprintf("ncagg.g%03d", g.idx), func(p *sim.Proc) {
		pl.foldGroup(p, g)
	})
}

// foldGroup is tier 2: the group's first member pulls every other
// member's run over the network (NIC time at the model's rate) and
// folds the runs — ascending node order — into one aggregated run that
// is the only thing the group publishes.
func (pl *combinePlan) foldGroup(p *sim.Proc, g *ncGroup) {
	j := pl.j
	agg := g.members[0].node
	start := p.Now()
	j.gauges.Enter(metrics.PhaseMap)
	defer j.gauges.Leave(metrics.PhaseMap)
	defer func() { j.addSpan(p.Name(), "combine-agg", agg.idx, start, p.Now()) }()

	m := j.spec.Cluster.Model
	var ledger int64
	nc := j.newNodeCombiner(p, agg, &ledger)
	for _, nn := range g.members {
		if nn.node != agg && nn.run.bytes > 0 {
			p.Use(agg.nic, 1, m.NetTime(nn.run.bytes))
		}
		nc.Absorb(nn.run.parts.Segs)
		nn.run = nil
	}
	parts, _, outPairs := nc.Finish()
	j.mapCPU += ledger
	pl.publishRun(p, g, agg, &ncRun{parts: parts, outPairs: outPairs, bytes: PartsBytes(parts.Segs)})
}

// publishRun enters the group's merged run into the shuffle as one
// output covering every member task, then releases the reducers'
// completion count for those tasks (deferred from task completion so
// no reducer can conclude the stream ended before the run appeared).
func (pl *combinePlan) publishRun(p *sim.Proc, g *ncGroup, n *node, run *ncRun) {
	j := pl.j
	o := j.publishMapOutput(p, n, fmt.Sprintf("ncomb.g%03d.out", g.idx), -1, g.tasks, run.parts)
	j.ncOutRecords += run.outPairs
	var published int64
	for _, b := range o.partBytes {
		published += b
	}
	j.ncSavedBytes += g.deposited - published
	for range g.tasks {
		j.shuffle.mapperFinished()
	}
}

// newNodeCombiner builds the shared fold for this job's platform: the
// incremental platforms merge states, the others combine values, and
// sort-merge requests key-sorted segments so its reducers keep
// consuming sorted runs.
func (j *job) newNodeCombiner(p *sim.Proc, n *node, ledger *int64) *core.NodeCombiner {
	rt := j.newRuntime(p, n, ledger)
	return core.NewNodeCombiner(rt, j.spec.Query, j.numReducers, j.spec.Cluster.MapBuffer,
		j.spec.Platform.Incremental(), j.spec.Platform == SortMerge)
}
