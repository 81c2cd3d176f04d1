package main

import (
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/experiments"
	"repro/internal/queries"
	"repro/internal/sched"
)

// TestFlagPathMatchesSchedulerAndFigures is the parity check of the one
// job description: for every catalogue query on every platform, this
// command's flags, the scheduler's JSON spec and a figure's
// experiments.Config.Job, given equal parameters, build
// reflect.DeepEqual engine jobs (the query instance aside).
func TestFlagPathMatchesSchedulerAndFigures(t *testing.T) {
	for _, query := range queries.Names {
		for _, platform := range []string{"sm", "hop", "mr-hash", "inc-hash", "dinc-hash"} {
			t.Run(query+"/"+platform, func(t *testing.T) {
				o, err := parseArgs([]string{"-query", query, "-platform", platform, "-scale", "1/4096",
					"-data", "2e9", "-chunk", "64e6", "-users", "700", "-state", "256", "-seed", "7", "-f", "10"})
				if err != nil {
					t.Fatal(err)
				}

				spec := sched.JobSpec{Org: "acme", Query: query, Platform: platform, Scale: "1/4096",
					DataBytes: 2e9, ChunkBytes: 64e6, Users: 700, StateBytes: 256, Seed: 7}
				spec.Normalize()
				scheduled, newQuery, err := sched.BuildJob(spec)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(o.job, scheduled) {
					t.Errorf("flags built\n%+v\nsched.BuildJob built\n%+v", o.job, scheduled)
				}
				if got, want := newQuery().Name(), o.newQuery().Name(); got != want || got != query {
					t.Errorf("query %q from the scheduler, %q from the flags, want %q", got, want, query)
				}

				figure, err := experiments.Config{Scale: 1.0 / 4096, Seed: 7}.Job(o.job.Cluster, o.job.Platform,
					onepass.JobParams{Query: query, DataBytes: 2e9, StateBytes: 256, Users: 700})
				if err != nil {
					t.Fatal(err)
				}
				figure.Query = nil
				if !reflect.DeepEqual(o.job, figure) {
					t.Errorf("flags built\n%+v\nexperiments.Config.Job built\n%+v", o.job, figure)
				}
			})
		}
	}
}

// TestFlagDefaultsSized pins the two values the flags leave to the
// builder: -f 0 is the analytical model's merge factor for (D, C) on
// the paper's hardware, and -users 0 a pool whose session states total
// 2.2x the cluster's reduce memory.
func TestFlagDefaultsSized(t *testing.T) {
	o, err := parseArgs([]string{"-scale", "1/4096", "-data", "236e9", "-r", "8"})
	if err != nil {
		t.Fatal(err)
	}
	cl := o.job.Cluster
	wantF := onepass.ModelOptimize(
		onepass.ModelWorkload{D: 236e9, Km: 1, Kr: 1},
		onepass.ModelHardware{N: 10, Bm: 140e6, Br: 500e6},
		8, []float64{64e6}, []int{4, 8, 16, 32, 64, 128}).F
	if cl.R != 8 || cl.MergeFactor != wantF || wantF == 10 {
		t.Errorf("-r 8 -f 0 built R=%d F=%d, want R=8 and the model's F=%d (not Hadoop's default 10)", cl.R, cl.MergeFactor, wantF)
	}
	wantUsers := int64(2.2 * float64(int64(8*10)*cl.ReduceBuffer) / float64(512+50))
	if got := o.job.Hints.DistinctKeys; got != wantUsers || got != 38228 {
		t.Errorf("-users 0 sized the pool to %d, want %d (= 38228)", got, wantUsers)
	}
}

// TestBadFlagsAreErrors: what used to reach a panic in the workload
// generator or the cost model is refused with a reason, and an unknown
// backend is refused before anything else is resolved.
func TestBadFlagsAreErrors(t *testing.T) {
	for _, tc := range []struct{ args, want string }{
		{"-data 1000 -scale 1/4096", "at least one physical byte"},
		{"-chunk 1000 -scale 1/4096", "at least one physical byte"},
		{"-scale 2", "(0, 1]"},
		{"-scale 0", "(0, 1]"},
		{"-users -1", "non-negative"},
		{"-state 10", "cannot hold a click"},
		{"-agg-fanin 4", "requires node-combine"},
		{"-backend bogus -query nope -scale x", `unknown backend "bogus"`},
	} {
		_, err := parseArgs(strings.Fields(tc.args))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("onepass %s: error %v, want one containing %q", tc.args, err, tc.want)
		}
	}
}

func TestSplitList(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"", nil},
		{"  ", nil},
		{"a", []string{"a"}},
		{"a,b", []string{"a", "b"}},
		{" a , b ,, c ", []string{"a", "b", "c"}},
	}
	for _, tc := range cases {
		if got := splitList(tc.in); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("splitList(%q) = %#v, want %#v", tc.in, got, tc.want)
		}
	}
}

func TestParseFaults(t *testing.T) {
	f, err := parseFaults("1@25%,3@60%", "2@4", "0:2,7:1", true)
	if err != nil {
		t.Fatal(err)
	}
	if !f.Speculate {
		t.Error("Speculate not carried through")
	}
	if want := map[int]float64{1: 0.25, 3: 0.6}; !reflect.DeepEqual(f.KillAtMapProgress, want) {
		t.Errorf("KillAtMapProgress = %v, want %v", f.KillAtMapProgress, want)
	}
	if want := map[int]float64{2: 4}; !reflect.DeepEqual(f.SlowNodes, want) {
		t.Errorf("SlowNodes = %v, want %v", f.SlowNodes, want)
	}
	if want := map[int]int{0: 2, 7: 1}; !reflect.DeepEqual(f.MapFailures, want) {
		t.Errorf("MapFailures = %v, want %v", f.MapFailures, want)
	}
	if f.FailPoint != 0.5 {
		t.Errorf("FailPoint = %v, want 0.5 once map failures are planned", f.FailPoint)
	}

	empty, err := parseFaults("", "", "", false)
	if err != nil {
		t.Fatal(err)
	}
	if empty.KillAtMapProgress != nil || empty.SlowNodes != nil || empty.MapFailures != nil || empty.FailPoint != 0 {
		t.Errorf("empty flags produced a non-zero plan: %+v", empty)
	}

	bad := []struct{ kill, slow, fail string }{
		{"1", "", ""},       // kill without @
		{"x@20%", "", ""},   // kill index not a number
		{"1@2m30s", "", ""}, // a virtual time is not a kill point
		{"1@x%", "", ""},    // kill percent unparsable
		{"", "2", ""},       // slow without @
		{"", "a@b", ""},     // slow fields unparsable
		{"", "", "3"},       // fail without :
		{"", "", "a:b"},     // fail fields unparsable
	}
	for _, tc := range bad {
		if _, err := parseFaults(tc.kill, tc.slow, tc.fail, false); err == nil {
			t.Errorf("parseFaults(%q, %q, %q) accepted bad input", tc.kill, tc.slow, tc.fail)
		}
	}
}

// reportFixture is a Report with every optional block of printReport
// switched on. With sim set it carries the curve and samples only the
// DES produces and virtual times; without, the wall-clock backend's
// measured sub-second times.
func reportFixture(sim bool) *onepass.Report {
	rep := &onepass.Report{
		Query: "clickcount", Platform: "inc-hash",
		RunningTime: 71*time.Millisecond + 400*time.Microsecond, MapFinishTime: 41 * time.Millisecond,
		MapCPUPerNode: 37 * time.Second, ReduceCPUPerNode: 12 * time.Second,
		InputBytes: 8e9, MapSpillBytes: 1e8, MapOutputBytes: 15e8, ReduceSpillBytes: 2e8, OutputBytes: 3e8,
		OutputRecords: 15171, MemShuffleFetches: 400, DiskShuffleFetches: 3,
		NodeCombineInputRecords: 46967, NodeCombineOutputRecords: 40861, ShuffleBytesSaved: 23e7,
		ShuffleBytesByNode: []int64{16e7, 15e7},
		NodesLost:          1, ReExecutedMapTasks: 7, RestartedReduceTasks: 4, FetchRetries: 6,
		Checkpoints: 2, CheckpointBytes: 1e8, RecoveryReadBytes: 3e8,
		SpeculativeBackups: 19, SpeculativeWins: 15, WastedCPUPerNode: 4 * time.Second,
		IORetries: 5, CorruptFramesDetected: 2, TornWritesRepaired: 1, QuarantinedRecords: 3,
		ChecksumOverheadBytes: 1e7, TotalIOBytes: 2e10,
	}
	if sim {
		rep.RunningTime, rep.MapFinishTime = 8*time.Minute+3*time.Second, 7400*time.Millisecond
		for i := 0; i <= 4; i++ {
			t := time.Duration(i) * 2 * time.Minute
			f := float64(i) / 4
			rep.Progress = append(rep.Progress, onepass.ProgressPoint{T: t, Map: f, Reduce: f * f})
			rep.Samples = append(rep.Samples, onepass.Sample{T: t, CPUUtil: 1 - f, IOWait: f / 2})
		}
	}
	return rep
}

// TestPrintReportShapes pins both report shapes. The simulation's is
// the text the parent of the -backend real fix printed for the same
// Report, byte for byte (virtual times in whole seconds, the plot and
// both strips). The wall-clock backend's shows its measured times in
// milliseconds and ends after the counters: it used to print
// "running time 0s (maps finished at 0s)" and a 20-row empty plot.
func TestPrintReportShapes(t *testing.T) {
	var sim, real strings.Builder
	printReport(&sim, reportFixture(true))
	printReport(&real, reportFixture(false))
	want, err := os.ReadFile("testdata/report_sim.txt")
	if err != nil {
		t.Fatal(err)
	}
	if sim.String() != string(want) {
		t.Errorf("simulation report moved:\n%s\nwant:\n%s", sim.String(), want)
	}
	head, _, _ := strings.Cut(string(want), "\nprogress (Definition 1):")
	head = strings.Replace(head, "running time     8m3s (maps finished at 7s)",
		"running time     71ms (maps finished at 41ms)", 1)
	if real.String() != head {
		t.Errorf("real-backend report:\n%s\nwant the simulation's counters with measured times and no plot:\n%s", real.String(), head)
	}
}
