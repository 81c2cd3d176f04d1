package simfuzz

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/mr"
	"repro/internal/realexec"
)

// movesEvidence pins, for every entry of a Report field's moves tag
// that names a fault cause or the order or medium kind, one generated
// case whose wall-clock run differs from its DES run in that field
// while no other entry of the field's tag holds. Without the entry the
// Backends comparison, and so checkReal, would reject that pair. Each
// row is "Field/entry".
var movesEvidence = []struct {
	seed     int64
	platform engine.Platform
	entries  []string
}{
	{237, engine.DINCHash, []string{
		"MapCPUPerNode/corruption", "InputBytes/corruption", "MapOutputBytes/corruption",
		"ReduceSpillBytes/order", "TotalIOBytes/medium", "TotalIORequests/medium",
		"MemShuffleFetches/medium", "DiskShuffleFetches/medium", "ShuffleBytesByNode/corruption",
		"ReExecutedMapTasks/corruption", "RestartedReduceTasks/corruption", "FetchRetries/corruption",
		"CorruptFramesDetected/corruption", "IORetries/io-errors",
		"ChecksumOverheadBytes/medium", "ChecksumOverheadByClass/medium",
		"MapInputRecords/corruption", "MapOutputRecords/corruption", "Outputs/order",
	}},
	{745, engine.INCHash, []string{
		"ReduceCPUPerNode/order", "InputBytes/kill+checkpoints", "MapOutputBytes/kill+checkpoints",
		"ShuffleBytesByNode/kill+checkpoints", "ReExecutedMapTasks/kill+checkpoints",
		"WastedCPUPerNode/kill", "Checkpoints/checkpoints", "CheckpointBytes/checkpoints",
		"RecoveryReadBytes/kill", "MapInputRecords/kill+checkpoints", "MapOutputRecords/kill+checkpoints",
	}},
	{615, engine.INCHash, []string{
		"MapCPUPerNode/slow", "InputBytes/speculation", "OutputBytes/order",
		"SpeculativeBackups/speculation", "OutputRecords/order",
	}},
	{502, engine.MRHash, []string{
		"FetchRetries/reduce-failures+shuffle-errors", "WastedCPUPerNode/reduce-failures",
		"RecoveryReadBytes/reduce-failures",
	}},
	{162, engine.SortMerge, []string{"MapSpillBytes/corruption", "WastedCPUPerNode/corruption", "RecoveryReadBytes/corruption"}},
	{50, engine.SortMerge, []string{"MapSpillBytes/speculation", "WastedCPUPerNode/speculation"}},
	{977, engine.INCHash, []string{"CorruptFramesDetected/torn-writes", "TornWritesRepaired/torn-writes"}},
	{377, engine.SortMerge, []string{"WastedCPUPerNode/slow+map-failures"}},
	{12, engine.HOP, []string{"SnapshotRecords/order"}},
	{683, engine.INCHash, []string{"MapCPUPerNode/kill+checkpoints"}},
	// The rows below move a field whose races tag the case also meets,
	// so which value the wall-clock run reports is timing; each differs
	// from the DES in each of 48 runs at 1, 2 and 4 workers.
	{287, engine.MRHash, []string{"ShuffleBytesByNode/speculation", "SpeculativeWins/speculation"}},
	{343, engine.INCHash, []string{"FetchRetries/kill"}},
}

// The races tags rest on wall-clock reruns, whose disagreement is
// timing and so cannot be pinned to a case. Over seeds 1–1,000 (4,449
// platform runs, clean and faulted, each at 1 and at 3 workers on two
// cores) FetchRetries differed on 348 runs, each with a kill in the
// plan; ShuffleBytesByNode and SpeculativeWins on 45 and IORetries on 2
// (seed 428, mr-hash and inc-hash), each with speculation. No other
// field differed but those tagged clock or host.

// TestMovesEntriesNeeded holds the moves tags to no more than the
// traffic needs: every cause, order and medium entry has a row in
// movesEvidence, every row names an entry that exists, and each row's
// case still differs across the backends in that field with that entry
// the only one that holds. Where the case also meets the field's races
// tag, one of three wall-clock runs has to differ.
func TestMovesEntriesNeeded(t *testing.T) {
	split := func(s string) []string { return strings.FieldsFunc(s, func(r rune) bool { return r == ',' }) }
	holds := func(entry string, present []string) bool {
		for _, name := range strings.Split(entry, "+") {
			if !slices.Contains(present, name) {
				return false
			}
		}
		return true
	}
	typ := reflect.TypeFor[engine.Report]()
	unproven := map[string]bool{}
	for i := range typ.NumField() {
		for _, e := range split(typ.Field(i).Tag.Get("moves")) {
			if e != engine.Host && e != engine.Clock && e != engine.Trace {
				unproven[typ.Field(i).Name+"/"+e] = true
			}
		}
	}
	for _, row := range movesEvidence {
		c := Gen(row.seed)
		input := c.Input()
		clean, err := engine.Run(c.jobSpec(row.platform, input, 1, false, 0))
		if err != nil {
			t.Fatalf("seed %d %s: %v", row.seed, row.platform, err)
		}
		spec := c.jobSpec(row.platform, input, 1, c.faulted(), clean.MapFinishTime)
		des, err := engine.Run(spec)
		if err != nil {
			t.Fatalf("seed %d %s: %v", row.seed, row.platform, err)
		}
		// The wall-clock run checkReal makes of the same case.
		var reals []*engine.Report
		realRun := func(n int) *engine.Report {
			for len(reals) <= n {
				job := c.jobSpec(row.platform, input, 1, c.faulted(), clean.MapFinishTime)
				job.Cluster.SlotCache = 1
				job.Cluster.Parallelism = max(c.Workers2, 1)
				rep, err := realexec.Run(job, func() mr.Query { return c.newQuery(false) })
				if err != nil {
					t.Fatalf("seed %d %s: real: %v", row.seed, row.platform, err)
				}
				reals = append(reals, rep)
			}
			return reals[n]
		}
		allow, causes := spec.Backends().Moves, spec.Causes()
		for _, ev := range row.entries {
			name, entry, _ := strings.Cut(ev, "/")
			if !unproven[ev] {
				t.Errorf("seed %d %s: %s names no moves entry, or one already proven", row.seed, row.platform, ev)
				continue
			}
			delete(unproven, ev)
			f, _ := typ.FieldByName(name)
			var held []string
			for _, e := range split(f.Tag.Get("moves")) {
				if holds(e, allow) {
					held = append(held, e)
				}
			}
			if !slices.Equal(held, []string{entry}) {
				t.Errorf("seed %d %s: %s: entries %v hold, want only %s", row.seed, row.platform, name, held, entry)
				continue
			}
			tries := 1
			if slices.ContainsFunc(split(f.Tag.Get("races")), func(e string) bool { return holds(e, causes) }) {
				tries = 3
			}
			want := reflect.ValueOf(des).Elem().FieldByName(name).Interface()
			differs := false
			for n := 0; n < tries && !differs; n++ {
				differs = !reflect.DeepEqual(want, reflect.ValueOf(realRun(n)).Elem().FieldByName(name).Interface())
			}
			if !differs {
				t.Errorf("seed %d %s: %s = %v on both backends; %s is not needed here", row.seed, row.platform, name, want, entry)
			}
		}
	}
	for ev := range unproven {
		t.Errorf("moves entry %s has no row in movesEvidence", ev)
	}
}
