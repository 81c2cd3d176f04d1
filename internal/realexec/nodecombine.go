// In-node combining on the wall-clock backend.
//
// The stage itself — plan, combiner configuration, both fold tiers,
// names, totals — is engine/task_combine.go, shared with the DES; this
// file decides only where it runs and which chunks take part. Eligible
// map tasks deposit their finished output instead of publishing a
// shuffle unit, and the map worker that deposits an aggregation group's
// last chunk folds the group: tier 1 per member node, tier 2 across
// members, one published unit in the slot of the group's smallest
// chunk, where reducers wait for it.
//
// Fault scope differs from the DES by design, as the keep predicate
// each driver hands the plan: the engine keeps nothing under any fault
// plan, while this backend keeps every chunk whose output provably
// survives on its home node to its fold. A chunk is dropped — published
// solo, exactly like a combine-off run — only when its home node dies
// (its output is lost or displaced) or when a speculative backup races
// it (the winning node is timing-dependent). Everything else, injected
// map failures included, combines: the winning attempt's node and
// output are a pure function of the spec.
package realexec

import (
	"fmt"
	"time"

	"repro/internal/engine"
	"repro/internal/storage"
	"repro/internal/substrate"
)

// combinable is the plan's keep predicate: chunk's output
// deterministically survives on its home node to its fold.
func (f *faults) combinable(chunk, node int) bool {
	return !f.dies(node) && f.backupFor(chunk, node) < 0
}

// rcResult is one group's fold outcome: the published unit plus what
// the report sums in group order.
type rcResult struct {
	store  *storage.Store
	node   int // serving (first member) node
	ledger int64
	unit   *unit
	spans  []engine.Span
}

// foldGroup folds one group on the map worker that deposited its last
// chunk and publishes its run in the slot of its smallest chunk, under
// the max event time of every chunk it covers; a failed fold fails that
// chunk's chain. The fold CPU goes to the group's ledger (map CPU), and
// each fold gets a fresh query instance (the factory contract).
func (r *run) foldGroup(g *engine.CombineGroup) {
	res, s := &rcResult{node: g.Members[0]}, &r.slots[g.Tasks[0]]
	r.combRes[g.Idx] = res
	defer close(s.ready)
	defer func() {
		if rec := recover(); rec != nil {
			r.maps[g.Tasks[0]].err = fmt.Errorf("realexec: node combine group %d: %v", g.Idx, rec)
		}
	}()
	p := substrate.NewWallProc(r.start)
	st := r.newStore(res.node)
	res.store = st
	rt := r.newRuntime(p, st, &res.ledger)
	span := func(name, kind string, node int, start int64) {
		res.spans = append(res.spans, engine.Span{Name: name, Kind: kind, Node: node,
			Start: time.Duration(start), End: time.Duration(p.Now())})
	}
	for mi, node := range g.Members {
		start := p.Now()
		g.FoldNode(rt, r.newQ(), mi)
		span(engine.CombineNodeName(node), "combine", node, start)
	}
	if len(g.Members) > 1 {
		start := p.Now()
		g.FoldGroup(rt, r.newQ(), nil)
		span(g.AggName(), "combine-agg", res.node, start)
	}
	res.unit = r.publish(p, st, g.FileName(), g.Tasks[0], 0, g.Run())
	g.Published(res.unit.partBytes)
	for _, c := range g.Tasks[1:] {
		s.maxTS = max(s.maxTS, r.slots[c].maxTS)
	}
	s.units = []*unit{res.unit}
}
