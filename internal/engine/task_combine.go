package engine

import (
	"fmt"
	"slices"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/mr"
)

// This file is the in-node combine stage (the tree aggregation of Lee
// et al.) as both backends run it: map tasks on a combining run deposit
// their finished output instead of publishing it, each node's deposits
// fold — in ascending chunk order — into one merged partitioned run
// (tier 1), and when AggFanIn groups several nodes the group's first
// member folds the member runs — in ascending node order — into the
// one run the group publishes (tier 2). The plan, the combiner's
// configuration, both folds, the names and the totals live here, so
// the published runs and every derived counter are bit-identical
// across substrates and worker counts by construction. Which chunks
// deposit is JobFrame.Keep (task_faults.go); a driver decides only when
// or where each fold runs, and how the finished run enters its shuffle.

// CombineTotals is the stage's accounting.
type CombineTotals struct {
	InPairs    int64 // map output pairs absorbed at tier 1
	OutPairs   int64 // pairs in the published runs
	SavedBytes int64 // physical bytes deposited minus physical bytes published
}

// CombineGroup is one aggregation group: a single node when
// AggFanIn ≤ 1, or AggFanIn consecutive nodes folded by the first
// member. A group is driven by one task at a time.
type CombineGroup struct {
	Idx     int
	Members []int   // nodes with at least one depositing chunk, ascending; Members[0] aggregates
	Chunks  [][]int // per member: its depositing chunks, ascending
	Tasks   []int   // every covered map task, ascending

	pl     *CombinePlan
	runs   []core.MapParts // per member: its tier-1 run; runs[0] becomes the aggregate
	pairs  []int64         // per member: pairs in its run
	folded int             // tier-1 runs in
	totals CombineTotals
}

// CombinePlan routes deposits to nodes and groups. A spec that does
// not resolve node combining on yields a plan no chunk deposits into.
type CombinePlan struct {
	Groups []*CombineGroup // groups with at least one member, ascending by first node

	f        *JobFrame
	deposits []bool              // per chunk: parks for the fold instead of publishing
	deps     []func() [][][]byte // per chunk: yields the deposited output's segments, until its node folds
	left     []atomic.Int32      // per node: deposits still outstanding
	groupOf  []*CombineGroup     // per node
}

// NewCombinePlan derives the depositing chunks and the aggregation
// groups from the frame's assignment and AggFanIn. A chunk the fault
// plan does not Keep publishes solo, exactly as on a combine-off run.
func (f *JobFrame) NewCombinePlan() *CombinePlan {
	pl := &CombinePlan{f: f}
	if !f.spec.NodeCombineActive() {
		return pl
	}
	nodes := f.spec.Cluster.Nodes
	pl.deposits = make([]bool, f.TotalMaps)
	pl.deps = make([]func() [][][]byte, f.TotalMaps)
	pl.left = make([]atomic.Int32, nodes)
	pl.groupOf = make([]*CombineGroup, nodes)
	perNode := make([][]int, nodes)
	for c := range pl.deposits {
		if n := f.Node(c); f.Keep(c) {
			pl.deposits[c] = true
			perNode[n] = append(perNode[n], c)
		}
	}
	fanIn := max(1, f.spec.AggFanIn)
	for base := 0; base < nodes; base += fanIn {
		g := &CombineGroup{Idx: len(pl.Groups), pl: pl}
		for n := base; n < min(base+fanIn, nodes); n++ {
			if len(perNode[n]) == 0 {
				continue
			}
			pl.groupOf[n] = g
			pl.left[n].Store(int32(len(perNode[n])))
			g.Members = append(g.Members, n)
			g.Chunks = append(g.Chunks, perNode[n])
			g.Tasks = append(g.Tasks, perNode[n]...)
		}
		if len(g.Members) == 0 {
			continue
		}
		slices.Sort(g.Tasks)
		g.runs = make([]core.MapParts, len(g.Members))
		g.pairs = make([]int64, len(g.Members))
		pl.Groups = append(pl.Groups, g)
	}
	return pl
}

// Deposits reports whether chunk's finished output parks for the fold
// instead of publishing.
func (pl *CombinePlan) Deposits(chunk int) bool { return pl.deposits != nil && pl.deposits[chunk] }

// Deposit records chunk's finished output, which FoldNode takes from
// load, and reports whether it was the last one its node was waiting
// for. Tasks may deposit concurrently.
func (pl *CombinePlan) Deposit(chunk int, load func() [][][]byte) (last bool) {
	pl.deps[chunk] = load
	return pl.left[pl.f.Node(chunk)].Add(-1) == 0
}

// GroupOf returns node's group and its member index there.
func (pl *CombinePlan) GroupOf(node int) (*CombineGroup, int) {
	g := pl.groupOf[node]
	return g, slices.Index(g.Members, node)
}

// Totals sums the groups' accounting.
func (pl *CombinePlan) Totals() (t CombineTotals) {
	for _, g := range pl.Groups {
		t.InPairs += g.totals.InPairs
		t.OutPairs += g.totals.OutPairs
		t.SavedBytes += g.totals.SavedBytes
	}
	return t
}

// newCombiner is the one NodeCombiner configuration: the map buffer as
// byte budget, merged states on the incremental platforms (combined
// values elsewhere), and key-sorted segments for sort-merge, whose
// reducers keep consuming sorted runs. q must be the caller's to use.
func (pl *CombinePlan) newCombiner(rt *core.Runtime, q mr.Query) *core.NodeCombiner {
	s := pl.f.spec
	return core.NewNodeCombiner(rt, q, pl.f.NumReducers, s.Cluster.MapBuffer,
		s.Platform.Incremental(), s.Platform == SortMerge)
}

// FoldNode is tier 1 for member mi: fold the node's deposits, in
// ascending chunk order, into one merged partitioned run, charging the
// fold CPU through rt. It reports whether every member's run is now in.
// A chunk that failed to deposit folds as empty.
func (g *CombineGroup) FoldNode(rt *core.Runtime, q mr.Query, mi int) (last bool) {
	nc := g.pl.newCombiner(rt, q)
	for _, c := range g.Chunks[mi] {
		if load := g.pl.deps[c]; load != nil {
			segs := load()
			g.totals.SavedBytes += PartsBytes(segs)
			nc.Absorb(segs)
		}
		g.pl.deps[c] = nil
	}
	var in int64
	g.runs[mi], in, g.pairs[mi] = nc.Finish()
	g.totals.InPairs += in
	g.folded++
	return g.folded == len(g.Members)
}

// FoldGroup is tier 2, for groups of several members: the first member
// folds every member's run, in ascending node order, into the run the
// group publishes. pull, if not nil, is told each remote member's run
// size just before that run is absorbed (the DES moves it over the
// aggregator's NIC). Tier-2 pairs do not count as combine input — that
// counter means "map output pairs absorbed", and they were at tier 1.
func (g *CombineGroup) FoldGroup(rt *core.Runtime, q mr.Query, pull func(node int, bytes int64)) {
	nc := g.pl.newCombiner(rt, q)
	for mi, node := range g.Members {
		if b := PartsBytes(g.runs[mi].Segs); pull != nil && mi > 0 && b > 0 {
			pull(node, b)
		}
		nc.Absorb(g.runs[mi].Segs)
		g.runs[mi] = core.MapParts{}
	}
	g.runs[0], _, g.pairs[0] = nc.Finish()
}

// Run is the run the group publishes, covering Tasks: its only member's
// once FoldNode reported last, the aggregate after FoldGroup.
func (g *CombineGroup) Run() core.MapParts { return g.runs[0] }

// Published records the published run's per-partition physical bytes.
func (g *CombineGroup) Published(partBytes []int64) {
	g.totals.OutPairs += g.pairs[0]
	for _, b := range partBytes {
		g.totals.SavedBytes -= b
	}
}

// Span and file names of the stage.
func CombineNodeName(node int) string    { return fmt.Sprintf("ncomb.n%03d", node) }
func (g *CombineGroup) AggName() string  { return fmt.Sprintf("ncagg.g%03d", g.Idx) }
func (g *CombineGroup) FileName() string { return fmt.Sprintf("ncomb.g%03d.out", g.Idx) }
