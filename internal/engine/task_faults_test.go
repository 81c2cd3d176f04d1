package engine

import (
	"testing"

	"repro/internal/mr"
	"repro/internal/queries"
)

// faultFrame is a combining clickcount job over chunks one-line chunks
// on nodes nodes, under the given fault plan.
func faultFrame(t *testing.T, nodes, chunks int, faults FaultPlan) *JobFrame {
	t.Helper()
	cl := PaperCluster(testModel())
	cl.Nodes = nodes
	spec := &JobSpec{Query: queries.NewClickCount(), Input: chunksInput(chunks), Cluster: cl,
		Hints: mr.Hints{Km: 0.1, DistinctKeys: 400}, NodeCombine: NodeCombineOn, Faults: faults, Seed: 1}
	f, err := NewJobFrame(spec)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestFaultScope pins the one fault interpretation both drivers ask
// (task_faults.go) on a 4-node, 16-chunk plan: node 1 dies after chunk
// prefix 4, node 3 after prefix 12, and node 2 straggles under
// speculation, with one injected failure on its chunk 6. Chunk c is
// assigned to node c mod 4, so the never-dying nodes are 0 and 2.
func TestFaultScope(t *testing.T) {
	plan := FaultPlan{
		KillAtMapProgress: map[int]float64{1: 0.25, 3: 0.75},
		SlowNodes:         map[int]float64{2: 3},
		Speculate:         true,
		MapFailures:       map[int]int{6: 1},
	}
	f := faultFrame(t, 4, 16, plan)
	for c := 0; c < 16; c++ {
		if f.Node(c) != c%4 {
			t.Fatalf("Node(%d) = %d, want %d: the table below assumes round-robin assignment", c, f.Node(c), c%4)
		}
	}
	for node, want := range []bool{false, true, false, true} {
		if got := f.Dies(node); got != want {
			t.Errorf("Dies(%d) = %v, want %v", node, got, want)
		}
	}

	// Placement indexes the survivors {0, 2} (minus avoid) by task.
	for _, c := range []struct{ task, avoid, want int }{
		{0, -1, 0}, {1, -1, 2}, {2, -1, 0}, {7, -1, 2},
		{1, 1, 2},            // avoiding a dying node changes nothing
		{0, 2, 0}, {1, 2, 0}, // one survivor left
		{0, 0, 2}, {5, 0, 2},
	} {
		if got := f.Place(c.task, c.avoid); got != c.want {
			t.Errorf("Place(%d, %d) = %d, want %d", c.task, c.avoid, got, c.want)
		}
	}

	// Per chunk: the node its primary starts on, whether a kill loses its
	// output, its backup node, and whether it combines.
	for _, c := range []struct {
		chunk, home int
		lost        bool
		backup      int
		keep        bool
	}{
		{0, 0, false, -1, true},
		{1, 1, true, -1, false},  // node 1's chunks below K=4 run there and are lost
		{5, 2, false, -1, false}, // …from K on they start on a survivor, Place(5) = 2
		{4, 0, false, -1, true},
		{2, 2, false, 0, false}, // the straggler's chunks race a backup away from it
		{10, 2, false, 0, false},
		{6, 2, false, -1, true}, // …unless a map failure is injected
		{3, 3, true, -1, false}, // node 3 dies after prefix 12
		{11, 3, true, -1, false},
		{12, 0, false, -1, true},
		{15, 2, false, -1, false}, // displaced off node 3: never combined
	} {
		if got := f.Home(c.chunk); got != c.home {
			t.Errorf("Home(%d) = %d, want %d", c.chunk, got, c.home)
		}
		if got := f.Lost(c.chunk); got != c.lost {
			t.Errorf("Lost(%d) = %v, want %v", c.chunk, got, c.lost)
		}
		if got := f.Backup(c.chunk); got != c.backup {
			t.Errorf("Backup(%d) = %d, want %d", c.chunk, got, c.backup)
		}
		if got := f.Keep(c.chunk); got != c.keep {
			t.Errorf("Keep(%d) = %v, want %v", c.chunk, got, c.keep)
		}
	}

	// Disk damage keeps nothing: a combined run on a damaged disk has no
	// single task to re-execute.
	plan.Disk = DiskFaultPlan{IOErrorRate: 0.01}
	disk := faultFrame(t, 4, 16, plan)
	for c := 0; c < 16; c++ {
		if disk.Keep(c) {
			t.Errorf("Keep(%d) under disk damage", c)
		}
	}

	// With one survivor, a backup has nowhere to go off its home node.
	two := faultFrame(t, 2, 4, FaultPlan{
		KillAtMapProgress: map[int]float64{1: 0.5},
		SlowNodes:         map[int]float64{0: 3},
		Speculate:         true,
	})
	if got := two.Place(0, 0); got != -1 {
		t.Errorf("Place(0, 0) with only node 0 surviving = %d, want -1", got)
	}
	if got := two.Backup(0); got != -1 {
		t.Errorf("Backup(0) with only its home surviving = %d, want -1", got)
	}
	if !two.Keep(0) || two.Keep(1) {
		t.Errorf("Keep(0), Keep(1) = %v, %v, want true, false", two.Keep(0), two.Keep(1))
	}
}
