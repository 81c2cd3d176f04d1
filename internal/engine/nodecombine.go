package engine

import (
	"repro/internal/metrics"
	"repro/internal/sim"
)

// The DES drives the in-node combine stage (task_combine.go): it
// decides only when each fold runs. A node's last deposit spawns that
// node's fold process, the group's last node fold spawns the
// aggregator (or publishes, for a group of one), remote runs cross the
// aggregator's NIC, and the covered tasks' completion count is
// released once the merged run is in the shuffle. All of it happens on
// job processes under the kernel, so every trigger point is
// deterministic. Which chunks deposit is JobFrame.Keep, as on the real
// backend: a kept chunk's home never dies and races no backup, so a
// deposit is never lost, superseded or re-executed.

// deposit parks one finished map task output; the node's last deposit
// spawns the node fold.
func (j *job) deposit(chunk int, n *node, segs [][][]byte) {
	if !j.combine.Deposit(chunk, segs) {
		return
	}
	g, mi := j.combine.GroupOf(n.idx)
	j.k.Spawn(CombineNodeName(n.idx), func(p *sim.Proc) {
		defer j.combineSpan(p, "combine", n)()
		var ledger int64
		last := g.FoldNode(j.newRuntime(p, n, &ledger), j.spec.Query, mi)
		j.sums.MapCPU += ledger
		switch {
		case !last:
		case len(g.Members) == 1:
			j.publishRun(p, g, n)
		default:
			j.k.Spawn(g.AggName(), func(p *sim.Proc) { j.foldGroup(p, g) })
		}
	})
}

// foldGroup runs tier 2 on the group's first member, pulling every
// other member's run over the network at the model's rate.
func (j *job) foldGroup(p *sim.Proc, g *CombineGroup) {
	agg := j.nodes[g.Members[0]]
	defer j.combineSpan(p, "combine-agg", agg)()
	var ledger int64
	g.FoldGroup(j.newRuntime(p, agg, &ledger), j.spec.Query, func(_ int, bytes int64) {
		agg.nic.Use(p, 1, j.spec.Cluster.Model.NetTime(bytes))
	})
	j.sums.MapCPU += ledger
	j.publishRun(p, g, agg)
}

// combineSpan opens a fold's span and map-phase gauge on node n; the
// returned func closes both.
func (j *job) combineSpan(p *sim.Proc, kind string, n *node) func() {
	start := p.Now()
	j.gauges.Enter(metrics.PhaseMap)
	return func() {
		j.addSpan(p.Name(), kind, n.idx, start, p.Now())
		j.gauges.Leave(metrics.PhaseMap)
	}
}

// publishRun enters the group's merged run into the shuffle as one
// output covering every member task, then releases the reducers'
// completion count for those tasks (deferred from task completion so
// no reducer can conclude the stream ended before the run appeared).
func (j *job) publishRun(p *sim.Proc, g *CombineGroup, n *node) {
	o := j.publishMapOutput(p, n, g.FileName(), -1, g.Tasks, g.Run())
	g.Published(o.partBytes)
	for range g.Tasks {
		j.shuffle.mapperFinished()
	}
}
