package realexec_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/cost"
	"repro/internal/engine"
	"repro/internal/mr"
	"repro/internal/queries"
	"repro/internal/realexec"
	"repro/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden real-backend Report snapshots")

func testModel() cost.Model { return cost.Default(1.0 / 4096) }

// testCluster is the same small 3-node cluster the engine's golden
// tests use, so the two substrates' snapshots stay comparable.
func testCluster(m cost.Model) engine.ClusterConfig {
	c := engine.PaperCluster(m)
	c.Nodes = 3
	c.Cores = 2
	c.MapSlots = 2
	c.ReduceSlots = 2
	c.R = 2
	c.ProgressInterval = 300 * time.Millisecond
	return c
}

// testClicks builds a small deterministic click stream.
func testClicks(t testing.TB, bytes, chunk int64) *workload.ClickStream {
	t.Helper()
	spec := workload.DefaultClickSpec(bytes, chunk, 77)
	spec.Users = 400
	spec.URLs = 100
	spec.Duration = 2 * time.Hour
	spec.Jitter = time.Second
	return workload.NewClickStream(spec)
}

// runReal runs a job on the wall-clock backend, failing the test on
// error.
func runReal(t testing.TB, job engine.JobSpec, newQ func() mr.Query, workers int) *engine.Report {
	t.Helper()
	rep, err := realexec.Run(realexec.Spec{Job: job, NewQuery: newQ, Workers: workers})
	if err != nil {
		t.Fatalf("real backend (%d workers): %v", workers, err)
	}
	return rep
}

// goldenJob is the canonical clickcount job of the engine's golden
// suite, with outputs collected so the snapshot pins the answer itself,
// not just its counters.
func goldenJob(t testing.TB, pl engine.Platform) engine.JobSpec {
	t.Helper()
	m := testModel()
	cl := testCluster(m)
	cl.ProgressInterval = 2 * time.Second
	return engine.JobSpec{
		Input:         testClicks(t, 96<<10, 12<<10),
		Platform:      pl,
		Cluster:       cl,
		Hints:         mr.Hints{Km: 0.1, DistinctKeys: 400},
		Seed:          1,
		CollectOutput: true,
	}
}

// TestGoldenRealReports snapshots the Report of the canonical
// clickcount job on every platform, run on the wall-clock backend,
// without the fields tagged clock or host (engine/report.go). Any change to a platform's data path, the CPU
// charging, or the shuffle accounting shows up here as a field-level
// diff; run with -update to accept an intentional change.
func TestGoldenRealReports(t *testing.T) {
	for _, pl := range []engine.Platform{engine.SortMerge, engine.HOP, engine.MRHash, engine.INCHash, engine.DINCHash} {
		t.Run(pl.String(), func(t *testing.T) {
			rep := runReal(t, goldenJob(t, pl), queries.NewClickCount, 4)
			got, err := json.MarshalIndent(rep.Without(engine.Clock, engine.Host), "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')
			path := filepath.Join("testdata", "golden", "real", pl.String()+".json")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %s (%d bytes)", path, len(got))
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update to create): %v", err)
			}
			if string(got) != string(want) {
				t.Errorf("report drifted from %s:\n%s", path, diffLines(string(want), string(got)))
			}
		})
	}
}

// TestGoldenRealNodeCombineReports snapshots the canonical job with
// the in-node combine stage on — flat on MR-hash, hierarchical
// (fan-in 3) on INC-hash — mirroring the engine's ".ncomb" goldens so
// the wall-clock fold, its counters, and the combined answer are
// pinned too.
func TestGoldenRealNodeCombineReports(t *testing.T) {
	variants := []struct {
		pl    engine.Platform
		fanIn int
	}{
		{engine.MRHash, 0},
		{engine.INCHash, 3},
	}
	for _, v := range variants {
		t.Run(v.pl.String(), func(t *testing.T) {
			job := goldenJob(t, v.pl)
			job.NodeCombine = engine.NodeCombineOn
			job.AggFanIn = v.fanIn
			rep := runReal(t, job, queries.NewClickCount, 4)
			if rep.NodeCombineInputRecords == 0 {
				t.Fatal("combine stage did not run")
			}
			got, err := json.MarshalIndent(rep.Without(engine.Clock, engine.Host), "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')
			path := filepath.Join("testdata", "golden", "real", v.pl.String()+".ncomb.json")
			if *updateGolden {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %s (%d bytes)", path, len(got))
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update to create): %v", err)
			}
			if string(got) != string(want) {
				t.Errorf("report drifted from %s:\n%s", path, diffLines(string(want), string(got)))
			}
		})
	}
}

// diffLines renders a compact line-level diff (golden vs. got).
func diffLines(want, got string) string {
	w := strings.Split(want, "\n")
	g := strings.Split(got, "\n")
	var b strings.Builder
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl == gl {
			continue
		}
		if wl != "" {
			b.WriteString("- " + wl + "\n")
		}
		if gl != "" {
			b.WriteString("+ " + gl + "\n")
		}
	}
	return b.String()
}

// sortedOutputs canonicalizes collected outputs for comparison.
func sortedOutputs(rep *engine.Report) []string {
	out := make([]string, 0, len(rep.Outputs))
	for _, kv := range rep.Outputs {
		out = append(out, kv[0]+"\t"+kv[1])
	}
	sort.Strings(out)
	return out
}

// TestWorkerCountConformance runs watermarked sessionization and
// early-emitting frequent-users on every platform with 1, 4, and 8
// workers and requires the Report — every counter, every byte volume,
// and the raw output sequence; all but the fields the RealRuns
// comparison lets move — to be bit-for-bit identical.
// This is the determinism contract of the real backend: the goroutine
// pool size changes only wall-clock time. The CI backend-real job runs
// this test under the race detector.
func TestWorkerCountConformance(t *testing.T) {
	m := testModel()
	input := testClicks(t, 96<<10, 12<<10)
	jobs := []struct {
		name string
		newQ func() mr.Query
		km   float64
	}{
		{"sessionization", func() mr.Query { return queries.NewSessionization(5*time.Minute, 512, 5*time.Second) }, 1.15},
		{"frequsers", func() mr.Query { return queries.NewFrequentUsers(4) }, 0.01},
	}
	for _, pl := range []engine.Platform{engine.SortMerge, engine.HOP, engine.MRHash, engine.INCHash, engine.DINCHash} {
		for _, jb := range jobs {
			t.Run(fmt.Sprintf("%s/%s", pl.String(), jb.name), func(t *testing.T) {
				job := engine.JobSpec{
					Input:         input,
					Platform:      pl,
					Cluster:       testCluster(m),
					Hints:         mr.Hints{Km: jb.km, DistinctKeys: 400},
					Seed:          1,
					CollectOutput: true,
				}
				var base *engine.Report
				for _, workers := range []int{1, 4, 8} {
					rep := runReal(t, job, jb.newQ, workers)
					if rep.Workers != workers {
						t.Fatalf("Workers = %d, want %d", rep.Workers, workers)
					}
					if base == nil {
						base = rep
						continue
					}
					if d := job.RealRuns().Diff(base, rep); d != "" {
						t.Errorf("%d workers diverged from 1 worker in %s", workers, d)
					}
					a, b := sortedOutputs(base), sortedOutputs(rep)
					if len(a) != len(b) {
						t.Fatalf("%d workers: %d outputs, 1 worker: %d", workers, len(b), len(a))
					}
					for i := range a {
						if a[i] != b[i] {
							t.Fatalf("%d workers: output %d = %q, 1 worker: %q", workers, i, b[i], a[i])
						}
					}
				}
				if base != nil && len(base.Outputs) == 0 {
					t.Fatal("no outputs collected; the conformance check is vacuous")
				}
			})
		}
	}
}

// TestRealBackendCapabilityErrors pins that the real backend refuses no
// spec the engine validates: one plan with every fault trigger —
// progress-point kills, stragglers, speculation, task failures,
// transient shuffle errors, checkpointing and disk damage — runs, the
// same plan the DES runs. What is left to refuse is a missing query
// factory.
func TestRealBackendCapabilityErrors(t *testing.T) {
	job := goldenJob(t, engine.INCHash)
	job.Cluster.Checksums = true
	job.Faults = engine.FaultPlan{
		KillAtMapProgress: map[int]float64{1: 0.5},
		SlowNodes:         map[int]float64{2: 3},
		MapFailures:       map[int]int{0: 1},
		ReduceFailures:    map[int]int{1: 1},
		ShuffleErrorRate:  0.02,
		Speculate:         true,
		Disk:              engine.DiskFaultPlan{IOErrorRate: 0.01, CorruptRate: 0.01, TornWrites: true},
	}
	job.CheckpointEvery = time.Millisecond
	if _, err := realexec.Run(realexec.Spec{Job: job, NewQuery: queries.NewClickCount, Workers: 2}); err != nil {
		t.Errorf("faulted job rejected by the real backend: %v", err)
	}

	if _, err := realexec.Run(realexec.Spec{Job: goldenJob(t, engine.INCHash)}); err == nil {
		t.Error("missing NewQuery accepted by the real backend")
	}
}

// TestRealBackendMemoryShuffle asserts the M3R property: every shuffle
// fetch is served from memory, none from disk.
func TestRealBackendMemoryShuffle(t *testing.T) {
	rep := runReal(t, goldenJob(t, engine.SortMerge), queries.NewClickCount, 4)
	if rep.MemShuffleFetches == 0 {
		t.Error("MemShuffleFetches = 0, want > 0")
	}
	if rep.DiskShuffleFetches != 0 {
		t.Errorf("DiskShuffleFetches = %d, want 0", rep.DiskShuffleFetches)
	}
}

// BenchmarkRealBackendSessionization runs the paper's sessionization
// workload end to end on the wall-clock backend with an 8-goroutine
// pool — the real-execution counterpart of the DES job benchmarks in
// cmd/benchtables.
func BenchmarkRealBackendSessionization(b *testing.B) {
	m := testModel()
	input := testClicks(b, 512<<10, 64<<10)
	job := engine.JobSpec{
		Input:    input,
		Platform: engine.INCHash,
		Cluster:  testCluster(m),
		Hints:    mr.Hints{Km: 1.15, DistinctKeys: 400},
		Seed:     1,
	}
	newQ := func() mr.Query { return queries.NewSessionization(5*time.Minute, 512, 5*time.Second) }
	var bytes int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := runReal(b, job, newQ, 8)
		bytes = rep.InputBytes
	}
	b.SetBytes(bytes)
}

// TestFrameSeedsBothBackends pins that the hash-family seed and the
// chunk assignment reach both drivers from engine.NewJobFrame rather
// than from a derivation of their own. Partition: on a one-node cluster
// with a single reduce slot the DES runs its reducers one after the
// other, so both backends list their outputs partition by partition —
// sort-merge emits each partition in key order — and the two ordered
// lists are equal only if every key hashed to the same partition on
// both sides. Assignment: on the three-node golden job every map span
// names the same node on both backends.
func TestFrameSeedsBothBackends(t *testing.T) {
	job := goldenJob(t, engine.SortMerge)
	job.Cluster.Nodes, job.Cluster.R, job.Cluster.ReduceSlots = 1, 4, 1
	des, real := runEngine(t, job, queries.NewClickCount), runReal(t, job, queries.NewClickCount, 4)
	if !reflect.DeepEqual(des.Outputs, real.Outputs) {
		t.Fatalf("outputs are not partitioned alike:\nengine=%v\nreal=%v", des.Outputs, real.Outputs)
	}
	descents := 0
	for i := 1; i < len(real.Outputs); i++ {
		if real.Outputs[i][0] < real.Outputs[i-1][0] {
			descents++
		}
	}
	if descents != 3 {
		t.Fatalf("%d key-order breaks in %d outputs, want the 3 boundaries of 4 partitions", descents, len(real.Outputs))
	}

	job = goldenJob(t, engine.SortMerge)
	des, real = runEngine(t, job, queries.NewClickCount), runReal(t, job, queries.NewClickCount, 4)
	nodeOf := func(rep *engine.Report) map[string]int {
		m := map[string]int{}
		for _, s := range rep.Spans {
			if s.Kind == "map" {
				m[s.Name] = s.Node
			}
		}
		return m
	}
	nd, nr := nodeOf(des), nodeOf(real)
	if len(nd) != job.Input.NumChunks() || !reflect.DeepEqual(nd, nr) {
		t.Fatalf("map tasks are not assigned alike:\nengine=%v\nreal=%v", nd, nr)
	}
	used := map[int]bool{}
	for _, n := range nr {
		used[n] = true
	}
	if len(used) != job.Cluster.Nodes {
		t.Fatalf("map tasks ran on %d of %d nodes", len(used), job.Cluster.Nodes)
	}
}
