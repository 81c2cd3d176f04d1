package engine

import (
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/mr"
	"repro/internal/queries"
	"repro/internal/storage"
)

// Direct tests for the job frame, the combine plan and the report tail
// (task_frame.go, task_combine.go): what both drivers start from and
// end with. Only whole-job goldens covered the plan before.

// chunksInput is an input of n one-line chunks.
type chunksInput int

func (chunksInput) Name() string          { return "chunks" }
func (n chunksInput) NumChunks() int      { return int(n) }
func (chunksInput) ChunkBytes(int) []byte { return []byte("x\n") }

// planFrame is a combining clickcount job over chunks chunks on the
// paper's ten nodes, under the given fault plan.
func planFrame(t *testing.T, chunks, fanIn int, mode NodeCombineMode, faults FaultPlan) *JobFrame {
	t.Helper()
	spec := &JobSpec{Query: queries.NewClickCount(), Input: chunksInput(chunks),
		Cluster: PaperCluster(testModel()), Hints: mr.Hints{Km: 0.1, DistinctKeys: 400},
		NodeCombine: mode, AggFanIn: fanIn, Faults: faults, Seed: 1}
	f, err := NewJobFrame(spec)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// ascending reports whether s is strictly ascending.
func ascending(s []int) bool {
	for i := 1; i < len(s); i++ {
		if s[i-1] >= s[i] {
			return false
		}
	}
	return true
}

// TestCombinePlan checks the plan's shape over fan-ins below, at and
// above the node count, inputs that leave nodes without chunks, and
// fault plans whose scope (JobFrame.Keep) drops a whole node or single
// chunks: every kept chunk is covered exactly once and no dropped one
// is, members, chunks and tasks ascend, empty groups are absent, groups
// are consecutive fan-in-wide node ranges whose first present member
// aggregates.
func TestCombinePlan(t *testing.T) {
	type scope struct {
		faults FaultPlan
		keep   func(chunk, node int) bool
	}
	scopes := func(chunks int) map[string]scope {
		// drop-chunks: every node straggles under speculation, so every
		// chunk would race a backup — except those with injected map
		// failures.
		slow, fails := map[int]float64{}, map[int]int{}
		for n := 0; n < 10; n++ {
			slow[n] = 2
		}
		for c := 0; c < chunks; c++ {
			if c%4 != 1 {
				fails[c] = 1
			}
		}
		return map[string]scope{
			"all":         {FaultPlan{}, func(int, int) bool { return true }},
			"drop-node-3": {FaultPlan{KillAtMapProgress: map[int]float64{3: 1}}, func(_, node int) bool { return node != 3 }},
			"drop-chunks": {FaultPlan{Speculate: true, SlowNodes: slow, MapFailures: fails}, func(chunk, _ int) bool { return chunk%4 != 1 }},
			"drop-all":    {FaultPlan{Disk: DiskFaultPlan{IOErrorRate: 0.01}}, func(int, int) bool { return false }},
		}
	}
	for _, chunks := range []int{25, 7} { // 7 chunks leave nodes 7–9 empty
		for _, fanIn := range []int{0, 1, 3, 5, 10, 12} {
			for name, sc := range scopes(chunks) {
				keep := sc.keep
				f := planFrame(t, chunks, fanIn, NodeCombineOn, sc.faults)
				pl := f.NewCombinePlan()
				covered := make([]int, chunks)
				lastNode := -1
				for gi, g := range pl.Groups {
					if g.Idx != gi || len(g.Members) == 0 || len(g.Chunks) != len(g.Members) {
						t.Fatalf("%d/%d/%s: group %d malformed: %+v", chunks, fanIn, name, gi, g)
					}
					width := max(1, fanIn)
					base := g.Members[0] / width * width
					if !ascending(g.Members) || g.Members[0] <= lastNode || g.Members[len(g.Members)-1] >= base+width {
						t.Fatalf("%d/%d/%s: group %d members %v not an ascending slice of nodes [%d,%d) after node %d",
							chunks, fanIn, name, gi, g.Members, base, base+width, lastNode)
					}
					lastNode = g.Members[len(g.Members)-1]
					var union []int
					for mi, node := range g.Members {
						if pg, pmi := pl.GroupOf(node); pg != g || pmi != mi {
							t.Fatalf("%d/%d/%s: GroupOf(%d) = group %d member %d, want %d/%d", chunks, fanIn, name, node, pg.Idx, pmi, gi, mi)
						}
						if len(g.Chunks[mi]) == 0 || !ascending(g.Chunks[mi]) {
							t.Fatalf("%d/%d/%s: node %d chunks %v empty or not ascending", chunks, fanIn, name, node, g.Chunks[mi])
						}
						for _, c := range g.Chunks[mi] {
							if f.Node(c) != node {
								t.Fatalf("%d/%d/%s: chunk %d listed under node %d, assigned to %d", chunks, fanIn, name, c, node, f.Node(c))
							}
							covered[c]++
						}
						union = append(union, g.Chunks[mi]...)
					}
					slices.Sort(union)
					if !ascending(g.Tasks) || !slices.Equal(g.Tasks, union) {
						t.Fatalf("%d/%d/%s: group %d tasks %v, want the ascending union %v", chunks, fanIn, name, gi, g.Tasks, union)
					}
				}
				for c, n := range covered {
					want := 0
					if keep(c, f.Node(c)) {
						want = 1
					}
					if n != want || pl.Deposits(c) != (want == 1) {
						t.Fatalf("%d/%d/%s: chunk %d covered %d times, Deposits=%v, want %d", chunks, fanIn, name, c, n, pl.Deposits(c), want)
					}
				}
			}
		}
	}

	// Tasks deposit concurrently on the wall-clock backend: exactly one
	// deposit per node reports that node complete.
	f := planFrame(t, 25, 3, NodeCombineOn, FaultPlan{})
	pl := f.NewCombinePlan()
	var lasts [10]atomic.Int32
	var wg sync.WaitGroup
	for c := 0; c < 25; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if pl.Deposit(c, nil) {
				lasts[f.Node(c)].Add(1)
			}
		}()
	}
	wg.Wait()
	for n := range lasts {
		if got := lasts[n].Load(); got != 1 {
			t.Errorf("node %d reported complete %d times, want once", n, got)
		}
	}

	// A spec that resolves combining off deposits nothing, whatever the plan keeps.
	off := planFrame(t, 25, 0, NodeCombineOff, FaultPlan{}).NewCombinePlan()
	if len(off.Groups) != 0 || off.Deposits(0) || off.Totals() != (CombineTotals{}) {
		t.Fatalf("combine-off plan is not empty: %+v", off)
	}
}

// reportOwners lists every Report field under the side that fills it:
// "tail" = JobFrame.ReportTail, from the run's summed counters, once
// for both backends; "driver" = genuinely the backend's own.
var reportOwners = map[string]string{
	"Query": "tail", "Platform": "tail",
	"RunningTime": "driver", "MapFinishTime": "driver",
	"MapCPUPerNode": "tail", "ReduceCPUPerNode": "tail",
	"InputBytes": "tail", "MapSpillBytes": "tail", "MapOutputBytes": "tail", "ReduceSpillBytes": "tail", "OutputBytes": "tail",
	"TotalIOBytes": "tail", "TotalIORequests": "tail",
	"MemShuffleFetches": "driver", "DiskShuffleFetches": "driver",
	"NodeCombineInputRecords": "tail", "NodeCombineOutputRecords": "tail", "ShuffleBytesSaved": "tail",
	"ShuffleBytesByNode": "tail",
	"NodesLost":          "driver", "ReExecutedMapTasks": "driver", "RestartedReduceTasks": "driver",
	"SpeculativeBackups": "driver", "SpeculativeWins": "driver", "FetchRetries": "driver",
	"WastedCPUPerNode": "tail", "Checkpoints": "driver", "CheckpointBytes": "tail", "RecoveryReadBytes": "tail",
	"CorruptFramesDetected": "tail", "IORetries": "tail", "TornWritesRepaired": "driver", "QuarantinedRecords": "driver",
	"ChecksumOverheadBytes": "tail", "ChecksumOverheadByClass": "tail",
	"OutputRecords": "driver", "MapInputRecords": "driver", "MapOutputRecords": "driver",
	"ApproxKeys": "driver", "SnapshotRecords": "driver",
	"Progress": "driver", "Samples": "driver", "Outputs": "driver", "Spans": "driver",
	"Workers": "driver", "WallTime": "driver",
}

// TestReportTailOwnsItsFields walks Report by reflection: a field must
// be listed in reportOwners (a new counter cannot be filled by one
// backend only, unnoticed), the tail must set every field listed as
// its own from all-nonzero sums, and must leave the drivers' alone.
func TestReportTailOwnsItsFields(t *testing.T) {
	f := planFrame(t, 25, 0, NodeCombineOn, FaultPlan{})
	sums := ReportSums{IORetries: 3, CorruptFrames: 4, MapCPU: int64(50 * time.Second), ReduceCPU: int64(30 * time.Second),
		WastedCPU: int64(20 * time.Second), RefetchBytes: 700, ShuffleByNode: []int64{0, 5, 0, 0, 0, 0, 0, 0, 0, 9},
		Combine: CombineTotals{InPairs: 100, OutPairs: 60, SavedBytes: 800}}
	for i := 0; i < int(storage.NumIOClasses); i++ {
		sums.IO.ReadBytes[i], sums.IO.WrittenBytes[i] = int64(1000+i), int64(2000+i)
		sums.IO.ReadReqs[i], sums.IO.WriteReqs[i], sums.IO.OverheadBytes[i] = 1, 2, int64(10+i)
	}
	var rep Report
	f.ReportTail(&rep, &sums)

	v := reflect.ValueOf(rep)
	seen := map[string]bool{}
	for i := 0; i < v.NumField(); i++ {
		name := v.Type().Field(i).Name
		seen[name] = true
		switch owner := reportOwners[name]; {
		case owner == "":
			t.Errorf("Report.%s is in no list: fill it in ReportTail (and list it \"tail\") or in both drivers (\"driver\")", name)
		case owner == "tail" && v.Field(i).IsZero():
			t.Errorf("Report.%s is listed as the tail's but ReportTail left it zero", name)
		case owner == "driver" && !v.Field(i).IsZero():
			t.Errorf("Report.%s is listed as the drivers' but ReportTail wrote it", name)
		}
	}
	for name := range reportOwners {
		if !seen[name] {
			t.Errorf("reportOwners lists %s, which Report no longer has", name)
		}
	}

	m := f.spec.Cluster.Model
	if want := m.LogicalBytes(sums.IO.ReadBytes[storage.Checkpoint] + 700); rep.RecoveryReadBytes != want {
		t.Errorf("RecoveryReadBytes = %d, want checkpoint reads + re-fetches = %d", rep.RecoveryReadBytes, want)
	}
	if want := []int64{0, m.LogicalBytes(5), 0, 0, 0, 0, 0, 0, 0, m.LogicalBytes(9)}; !slices.Equal(rep.ShuffleBytesByNode, want) {
		t.Errorf("ShuffleBytesByNode = %v, want %v", rep.ShuffleBytesByNode, want)
	}
	if rep.MapCPUPerNode != 5*time.Second || rep.WastedCPUPerNode != 2*time.Second {
		t.Errorf("per-node CPU = %v map, %v wasted, want the ledgers over 10 nodes", rep.MapCPUPerNode, rep.WastedCPUPerNode)
	}
	sums.ShuffleByNode = make([]int64, 10)
	rep = Report{}
	f.ReportTail(&rep, &sums)
	if rep.ShuffleBytesByNode != nil {
		t.Errorf("ShuffleBytesByNode = %v with nothing shuffled, want nil", rep.ShuffleBytesByNode)
	}
}
