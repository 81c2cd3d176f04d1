package engine

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/queries"
	"repro/internal/storage"
)

// TestAttemptChainCleanEquivalence: a fault-free run and the same spec
// under a checkpoint interval longer than the job (no checkpoint ever
// taken) are the same run — every virtual time, counter, span and
// sample. The two once took different task loops, which disagreed on
// span names and on whether a snapshot (sort-merge and HOP take them
// here) leaves the shuffle gauge.
func TestAttemptChainCleanEquivalence(t *testing.T) {
	m := testModel()
	input := testClicks(t, 192<<10, 12<<10)
	for _, pl := range []Platform{SortMerge, HOP, MRHash, INCHash, DINCHash} {
		spec := clickCountSpec(m, input, pl)
		spec.SnapshotEvery = 0.25
		clean := runJob(t, spec)
		spec.CheckpointEvery = 1000 * clean.RunningTime
		idle := runJob(t, spec)
		clean.WallTime, idle.WallTime = 0, 0
		if snaps := pl == SortMerge || pl == HOP; idle.Checkpoints != 0 || snaps != (clean.SnapshotRecords > 0) {
			t.Fatalf("%v: test setup: %d checkpoints, %d snapshot records", pl, idle.Checkpoints, clean.SnapshotRecords)
		}
		if !reflect.DeepEqual(clean, idle) {
			t.Errorf("%v: report differs under an idle checkpoint interval (field %s)", pl, ReportDiff(clean, idle))
		}
	}
}

// reduceSpans lists the reduce-task spans as "name kind", sorted.
func reduceSpans(rep *Report) []string {
	var out []string
	for _, s := range rep.Spans {
		if strings.HasPrefix(s.Kind, "reduce") {
			out = append(out, s.Name+" "+s.Kind)
		}
	}
	sort.Strings(out)
	return out
}

// TestAttemptChainSpanNames: attempt 0 of a reduce task is named by the
// task, with or without a fault plan; only retries carry ".aN".
func TestAttemptChainSpanNames(t *testing.T) {
	m := testModel()
	input := testClicks(t, 96<<10, 12<<10)
	var want []string
	for r := 0; r < 6; r++ {
		want = append(want, fmt.Sprintf("reduce%03d reduce", r))
	}
	equalStrings(t, "clean", want, reduceSpans(runJob(t, clickCountSpec(m, input, INCHash))))

	spec := clickCountSpec(m, input, INCHash)
	spec.Faults.ReduceFailures = map[int]int{3: 1}
	want[3] = "reduce003 reduce-failed"
	want = append(want, "reduce003.a1 reduce")
	sort.Strings(want)
	equalStrings(t, "one reduce failure", want, reduceSpans(runJob(t, spec)))
}

// TestAttemptChainHOPLengthOne: HOP's chain has length one. Under the
// one fault class validation admits there (transient disk errors), a
// reducer whose storage retry budget runs out — a *storage.Corruption
// that restarts the attempt on every other platform — fails the job:
// the pushes it consumed cannot be replayed. The seed makes the first
// twelve rolls on node 0 all hit, so the first reduce spill there
// exhausts the budget.
func TestAttemptChainHOPLengthOne(t *testing.T) {
	const rate, diskSeed = 0.25, 10382628
	for seq := int64(1); seq <= 12; seq++ {
		if !storage.Roll(rate, diskSeed, 0, seq, 0) {
			t.Fatalf("test setup: roll %d on node 0 misses under disk seed %d", seq, diskSeed)
		}
	}
	for _, pl := range []Platform{HOP, SortMerge} {
		spec := clickCountSpec(testModel(), testClicks(t, 192<<10, 12<<10), pl)
		spec.Query = queries.NewSessionization(5*time.Minute, 512, 5*time.Second)
		spec.Hints.Km = 1
		spec.Cluster.ReduceBuffer = 16 << 10 // force reduce spills
		spec.Cluster.ReduceSlots = 1         // one reducer at a time draws node 0's rolls
		spec.Seed = diskSeed ^ 0x5eed1e57    // the disk seed is JobSpec.Seed ^ 0x5eed1e57
		spec.Faults.Disk = DiskFaultPlan{IOErrorRate: rate, Classes: []storage.IOClass{storage.ReduceSpill}}
		rep, err := Run(spec)
		if pl == SortMerge {
			// The control: same plan, restartable platform.
			if err != nil || rep.RestartedReduceTasks == 0 {
				t.Fatalf("sort-merge: err %v, report %+v; want a restarted reduce attempt", err, rep)
			}
			continue
		}
		if err == nil {
			t.Fatalf("hop: job succeeded with %d restarted reduce attempts; want Run's error", rep.RestartedReduceTasks)
		}
		if !strings.Contains(err.Error(), "proc reduce") || !strings.Contains(err.Error(), "io fault") {
			t.Errorf("hop: error %q does not name a reducer's exhausted I/O retry budget", err)
		}
	}
}
