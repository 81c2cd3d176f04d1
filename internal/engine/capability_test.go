package engine

import (
	"strings"
	"testing"
	"time"

	"repro/internal/cost"
	"repro/internal/queries"
)

// capabilitySpec is a minimal valid job for exercising validate() and
// the backend capability split.
func capabilitySpec(t *testing.T) JobSpec {
	t.Helper()
	m := cost.Default(1.0 / 4096)
	cl := PaperCluster(m)
	cl.Nodes = 3
	return JobSpec{
		Query:    queries.NewClickCount(),
		Input:    testClicks(t, 32<<10, 8<<10),
		Platform: INCHash,
		Cluster:  cl,
		Seed:     1,
	}
}

// TestFaultPlanRiskyEdgeCases pins risky() on single-trigger plans:
// only node kills — a map-barrier kill (fraction 1.0) included — and
// injected reduce failures can fail a reduce attempt after it consumed
// input; an empty plan cannot.
func TestFaultPlanRiskyEdgeCases(t *testing.T) {
	var empty FaultPlan
	if empty.risky() {
		t.Error("empty plan is risky")
	}
	cases := []struct {
		name  string
		plan  FaultPlan
		risky bool
	}{
		{"kill-at-progress", FaultPlan{KillAtMapProgress: map[int]float64{0: 0.5}}, true},
		{"kill-at-barrier", FaultPlan{KillAtMapProgress: map[int]float64{0: 1.0}}, true},
		{"map-failures", FaultPlan{MapFailures: map[int]int{0: 1}}, false},
		{"reduce-failures", FaultPlan{ReduceFailures: map[int]int{0: 1}}, true},
		{"slow-nodes", FaultPlan{SlowNodes: map[int]float64{0: 2}}, false},
		{"speculate", FaultPlan{Speculate: true}, false},
		{"shuffle-errors", FaultPlan{ShuffleErrorRate: 0.01}, false},
		{"disk-only", FaultPlan{Disk: DiskFaultPlan{IOErrorRate: 0.01}}, false},
	}
	for _, c := range cases {
		if got := c.plan.risky(); got != c.risky {
			t.Errorf("%s: risky = %v, want %v", c.name, got, c.risky)
		}
	}
}

// TestValidateKillAtMapProgress pins the validation envelope of the
// real-backend kill trigger.
func TestValidateKillAtMapProgress(t *testing.T) {
	cases := []struct {
		name string
		plan map[int]float64
		want string // "" means valid
	}{
		{"mid-phase", map[int]float64{1: 0.5}, ""},
		{"at-barrier", map[int]float64{1: 1.0}, ""},
		{"zero-fraction", map[int]float64{1: 0}, "kill-at-progress fraction"},
		{"over-one", map[int]float64{1: 1.01}, "kill-at-progress fraction"},
		{"bad-node", map[int]float64{7: 0.5}, "kill-at-progress node index"},
		{"negative-node", map[int]float64{-1: 0.5}, "kill-at-progress node index"},
		{"no-survivor", map[int]float64{0: 0.5, 1: 0.5, 2: 0.5}, "at least one node must survive"},
	}
	for _, c := range cases {
		spec := capabilitySpec(t)
		spec.Faults.KillAtMapProgress = c.plan
		err := spec.Validate()
		if c.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", c.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error = %v, want substring %q", c.name, err, c.want)
		}
	}

	spec := capabilitySpec(t)
	spec.Faults.ShuffleErrorRate = 1.0
	if err := spec.Validate(); err == nil || !strings.Contains(err.Error(), "shuffle-error rate") {
		t.Errorf("shuffle-error rate 1.0 validated: %v", err)
	}
	spec = capabilitySpec(t)
	spec.Faults.ShuffleErrorRate = -0.1
	if err := spec.Validate(); err == nil || !strings.Contains(err.Error(), "shuffle-error rate") {
		t.Errorf("negative shuffle-error rate validated: %v", err)
	}

	// HOP rejects the new triggers like every other fault feature.
	spec = capabilitySpec(t)
	spec.Platform = HOP
	spec.Faults.KillAtMapProgress = map[int]float64{1: 0.5}
	if err := spec.Validate(); err == nil || !strings.Contains(err.Error(), "hop platform") {
		t.Errorf("HOP accepted a progress-kill plan: %v", err)
	}
}

// TestBackendCapabilitySplit pins that nothing is left of the split:
// the DES runs one plan with every trigger the real backend runs —
// progress kills, shuffle errors and disk damage included — and each
// registers.
func TestBackendCapabilitySplit(t *testing.T) {
	shared := capabilitySpec(t)
	shared.Cluster.Checksums = true
	shared.Faults = FaultPlan{
		KillAtMapProgress: map[int]float64{1: 0.5},
		MapFailures:       map[int]int{0: 1},
		ReduceFailures:    map[int]int{0: 1},
		SlowNodes:         map[int]float64{2: 2},
		Speculate:         true,
		ShuffleErrorRate:  0.2,
		Disk:              DiskFaultPlan{IOErrorRate: 0.05, CorruptRate: 0.05, TornWrites: true},
	}
	shared.CheckpointEvery = time.Second
	rep, err := Run(shared)
	if err != nil {
		t.Fatalf("engine.Run refused a plan the real backend runs: %v", err)
	}
	if rep.NodesLost != 1 || rep.FetchRetries == 0 || rep.IORetries == 0 {
		t.Errorf("NodesLost = %d, FetchRetries = %d, IORetries = %d: kill, shuffle errors or disk damage inert on the DES",
			rep.NodesLost, rep.FetchRetries, rep.IORetries)
	}
}

func TestParsePlatform(t *testing.T) {
	cases := []struct {
		in   string
		want Platform
	}{
		{"sm", SortMerge},
		{"SortMerge", SortMerge},
		{"1-pass-sm", SortMerge},
		{"hop", HOP},
		{"mr-hash", MRHash},
		{"mrhash", MRHash},
		{"inc-hash", INCHash},
		{"INC-HASH", INCHash},
		{"dinc-hash", DINCHash},
		{"dinchash", DINCHash},
	}
	for _, tc := range cases {
		got, err := ParsePlatform(tc.in)
		if err != nil {
			t.Errorf("ParsePlatform(%q): %v", tc.in, err)
			continue
		}
		if got != tc.want {
			t.Errorf("ParsePlatform(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
	for _, bad := range []string{"", "hadoop", "sm2"} {
		if _, err := ParsePlatform(bad); err == nil {
			t.Errorf("ParsePlatform(%q) accepted an unknown platform", bad)
		}
	}
}
