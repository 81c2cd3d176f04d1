package engine

import (
	"bytes"
	"strconv"
	"testing"
	"time"

	"repro/internal/kvenc"
	"repro/internal/mr"
	"repro/internal/queries"
)

// ncSpec is the canonical combinable job for the node-combine tests.
func ncSpec(t *testing.T, mode NodeCombineMode) JobSpec {
	return JobSpec{
		Query:       queries.NewClickCount(),
		Input:       testClicks(t, 96<<10, 8<<10),
		Cluster:     testCluster(testModel()),
		Hints:       mr.Hints{Km: 0.1, DistinctKeys: 400},
		NodeCombine: mode,
		Seed:        1,
	}
}

// assertContentIdentical pins the content-derived counters that must
// not move when node combining switches on: the answer set and every
// counter derived from the input or the final output. Shuffle volume,
// CPU, and times legitimately change — that is the point of the stage.
func assertContentIdentical(t *testing.T, name string, off, on *Report) {
	t.Helper()
	equalStrings(t, name, sortedOutputs(off, kvLine), sortedOutputs(on, kvLine))
	if off.MapInputRecords != on.MapInputRecords ||
		off.MapOutputRecords != on.MapOutputRecords ||
		off.OutputRecords != on.OutputRecords ||
		off.QuarantinedRecords != on.QuarantinedRecords ||
		off.InputBytes != on.InputBytes ||
		off.OutputBytes != on.OutputBytes {
		t.Fatalf("%s: content counters moved:\noff=%+v\non=%+v", name, off, on)
	}
}

func TestNodeCombineAnswerIdentity(t *testing.T) {
	for _, pl := range []Platform{SortMerge, MRHash, INCHash, DINCHash} {
		t.Run(pl.String(), func(t *testing.T) {
			offSpec := ncSpec(t, NodeCombineOff)
			offSpec.Platform = pl
			off := runJob(t, offSpec)
			onSpec := ncSpec(t, NodeCombineOn)
			onSpec.Platform = pl
			on := runJob(t, onSpec)

			assertContentIdentical(t, pl.String(), off, on)
			if on.NodeCombineInputRecords == 0 || on.NodeCombineOutputRecords == 0 {
				t.Fatalf("combine stage did not run: in=%d out=%d",
					on.NodeCombineInputRecords, on.NodeCombineOutputRecords)
			}
			if on.NodeCombineOutputRecords >= on.NodeCombineInputRecords {
				t.Fatalf("fold did not compact: in=%d out=%d",
					on.NodeCombineInputRecords, on.NodeCombineOutputRecords)
			}
			if on.ShuffleBytesSaved <= 0 {
				t.Fatalf("no shuffle bytes saved (saved=%d)", on.ShuffleBytesSaved)
			}
			if on.MapOutputBytes >= off.MapOutputBytes {
				t.Fatalf("shuffle volume did not drop: off=%d on=%d",
					off.MapOutputBytes, on.MapOutputBytes)
			}
			if off.NodeCombineInputRecords != 0 || off.ShuffleBytesSaved != 0 {
				t.Fatalf("combine counters nonzero with combining off: %+v", off)
			}
		})
	}
}

// TestNodeCombineNoop pins the exact-no-op rule: on an uncombinable
// query (sessionization has no combine function) and on HOP (eager
// spill pipelining), NodeCombineOn must leave the whole report
// bit-identical — not just the answers.
func TestNodeCombineNoop(t *testing.T) {
	run := func(q mr.Query, pl Platform, mode NodeCombineMode) *Report {
		return runJob(t, JobSpec{
			Query:       q,
			Input:       testClicks(t, 96<<10, 8<<10),
			Platform:    pl,
			Cluster:     testCluster(testModel()),
			Hints:       mr.Hints{Km: 1, DistinctKeys: 400},
			NodeCombine: mode,
			Seed:        1,
		})
	}
	t.Run("sessionization", func(t *testing.T) {
		mk := func() mr.Query { return queries.NewSessionization(5*time.Minute, 512, 5*time.Second) }
		off := run(mk(), INCHash, NodeCombineOff)
		on := run(mk(), INCHash, NodeCombineOn)
		if d := SimRuns.Diff(off, on); d != "" || off.Workers != on.Workers {
			t.Fatalf("NodeCombineOn must be an exact no-op on an uncombinable query; %s differs (workers %d vs %d)", d, off.Workers, on.Workers)
		}
	})
	t.Run("hop", func(t *testing.T) {
		off := run(queries.NewClickCount(), HOP, NodeCombineOff)
		on := run(queries.NewClickCount(), HOP, NodeCombineOn)
		if d := SimRuns.Diff(off, on); d != "" || off.Workers != on.Workers {
			t.Fatalf("NodeCombineOn must be an exact no-op on HOP; %s differs (workers %d vs %d)", d, off.Workers, on.Workers)
		}
	})
}

// TestNodeCombineHierarchical folds all three nodes' runs through one
// aggregator (fan-in 3): the answers still match the uncombined run,
// the whole shuffle is served by the aggregator node, and at least as
// many bytes are saved as plain per-node combining achieves.
func TestNodeCombineHierarchical(t *testing.T) {
	offSpec := ncSpec(t, NodeCombineOff)
	offSpec.Platform = MRHash
	off := runJob(t, offSpec)

	plain := ncSpec(t, NodeCombineOn)
	plain.Platform = MRHash
	flat := runJob(t, plain)

	tree := ncSpec(t, NodeCombineOn)
	tree.Platform = MRHash
	tree.AggFanIn = 3
	agg := runJob(t, tree)

	assertContentIdentical(t, "agg", off, agg)
	if agg.ShuffleBytesSaved < flat.ShuffleBytesSaved {
		t.Fatalf("tree aggregation saved less than flat combining: %d < %d",
			agg.ShuffleBytesSaved, flat.ShuffleBytesSaved)
	}
	for i, b := range agg.ShuffleBytesByNode {
		if i != 0 && b != 0 {
			t.Fatalf("fan-in 3 must serve the whole shuffle from node 0: node %d served %d bytes", i, b)
		}
	}
}

// TestNodeCombineWithCheckpointing runs the combined path through the
// checkpointing reduce loop (tracker present, consumed-set restored
// from images): answers and content counters must match combine-off.
func TestNodeCombineWithCheckpointing(t *testing.T) {
	offSpec := ncSpec(t, NodeCombineOff)
	offSpec.Platform = INCHash
	offSpec.CheckpointEvery = 2 * time.Second
	off := runJob(t, offSpec)

	onSpec := ncSpec(t, NodeCombineOn)
	onSpec.Platform = INCHash
	onSpec.CheckpointEvery = 2 * time.Second
	on := runJob(t, onSpec)

	assertContentIdentical(t, "checkpointed", off, on)
	if on.NodeCombineInputRecords == 0 {
		t.Fatal("combine stage did not run under checkpointing")
	}
}

// TestNodeCombineAuto pins the cost-model gate: auto combines when the
// predicted saving (1 − N·Kr/Km) clears the threshold and stays off
// when the hints predict too little reduction or are absent.
func TestNodeCombineAuto(t *testing.T) {
	run := func(hints mr.Hints) *Report {
		spec := ncSpec(t, NodeCombineAuto)
		spec.Platform = MRHash
		spec.Hints = hints
		return runJob(t, spec)
	}
	if rep := run(mr.Hints{Km: 0.1, Kr: 0.001, DistinctKeys: 400}); rep.NodeCombineInputRecords == 0 {
		t.Fatal("auto should combine on a high-duplication workload")
	}
	if rep := run(mr.Hints{Km: 0.1, Kr: 0.03, DistinctKeys: 400}); rep.NodeCombineInputRecords != 0 {
		t.Fatal("auto should not combine when the predicted saving is below threshold")
	}
	if rep := run(mr.Hints{Km: 0.1, DistinctKeys: 400}); rep.NodeCombineInputRecords != 0 {
		t.Fatal("auto should not combine without a Kr hint")
	}
}

// TestNodeCombineUnderMapFailures pins the fault scope (JobFrame.Keep):
// injected map failures neither kill a node nor move a winning attempt,
// so every chunk still combines — the combine counters equal the
// fault-free run's — and the run answers exactly as the uncombined one.
func TestNodeCombineUnderMapFailures(t *testing.T) {
	run := func(mode NodeCombineMode, faulted bool) *Report {
		spec := ncSpec(t, mode)
		spec.Platform = MRHash
		if faulted {
			spec.Faults = FaultPlan{
				MapFailures: map[int]int{1: 1},
				FailPoint:   0.5,
			}
		}
		return runJob(t, spec)
	}
	off, on, clean := run(NodeCombineOff, true), run(NodeCombineOn, true), run(NodeCombineOn, false)
	assertContentIdentical(t, "map-failures", off, on)
	if on.NodeCombineInputRecords == 0 ||
		on.NodeCombineInputRecords != clean.NodeCombineInputRecords ||
		on.NodeCombineOutputRecords != clean.NodeCombineOutputRecords ||
		on.ShuffleBytesSaved != clean.ShuffleBytesSaved {
		t.Fatalf("combine counters under map failures (in=%d out=%d saved=%d) differ from the fault-free run's (in=%d out=%d saved=%d)",
			on.NodeCombineInputRecords, on.NodeCombineOutputRecords, on.ShuffleBytesSaved,
			clean.NodeCombineInputRecords, clean.NodeCombineOutputRecords, clean.ShuffleBytesSaved)
	}
}

// multiEmit is the satellite query for the CPU accounting pin: each
// record emits 0–2 pairs depending on its content, so emitted pairs
// and input records diverge and a per-record charge cannot masquerade
// as a per-pair one.
type multiEmit struct{}

func (multiEmit) Name() string { return "multiemit" }

func multiEmitPairs(rec []byte) int {
	sum := len(rec)
	for _, b := range rec {
		sum += int(b)
	}
	return sum % 3
}

func (multiEmit) Map(rec []byte, emit func(k, v []byte)) {
	for i := 0; i < multiEmitPairs(rec); i++ {
		emit([]byte{'k', byte('0' + i), rec[len(rec)-1]}, []byte("1"))
	}
}

func (multiEmit) Reduce(key []byte, values kvenc.ValueIter, out mr.OutputWriter) {
	var n int64
	for {
		v, ok := values.Next()
		if !ok {
			break
		}
		c, _ := strconv.ParseInt(string(v), 10, 64)
		n += c
	}
	out.Emit(key, []byte(strconv.FormatInt(n, 10)))
}

func (multiEmit) Combine(key []byte, values kvenc.ValueIter, emit func(v []byte)) {
	var n int64
	for {
		v, ok := values.Next()
		if !ok {
			break
		}
		c, _ := strconv.ParseInt(string(v), 10, 64)
		n += c
	}
	emit([]byte(strconv.FormatInt(n, 10)))
}

// TestMapCPUChargedPerEmittedPair pins the hash-combining map CPU unit
// (the accounting audit of this PR): the collector touches its table
// once per emitted pair, so the charge is parse + per-record map cost
// + (insert+combine) per PAIR. The old per-record rule billed a
// combine for records that emitted nothing and missed the extra table
// work of multi-emission records; with records ≠ pairs this closed
// form only matches the per-pair rule.
func TestMapCPUChargedPerEmittedPair(t *testing.T) {
	m := testModel()
	cl := testCluster(m)
	input := testClicks(t, 48<<10, 8<<10)
	rep := runJob(t, JobSpec{
		Query:    multiEmit{},
		Input:    input,
		Platform: MRHash,
		Cluster:  cl,
		Hints:    mr.Hints{Km: 0.1, DistinctKeys: 16},
		Seed:     1,
	})

	var inBytes, records, pairs int64
	for c := 0; c < input.NumChunks(); c++ {
		data := input.ChunkBytes(c)
		inBytes += int64(len(data))
		for _, line := range bytes.Split(data, []byte{'\n'}) {
			if len(line) == 0 {
				continue
			}
			records++
			pairs += int64(multiEmitPairs(line))
		}
	}
	if pairs == records || pairs == 0 {
		t.Fatalf("degenerate workload: records=%d pairs=%d", records, pairs)
	}
	want := m.CPUOps(m.CPUParseByte, inBytes) +
		m.CPUOps(m.CPUMapRecord, records) +
		m.CPUOps(m.CPUHashInsert+m.CPUCombine, pairs)
	want /= time.Duration(cl.Nodes)
	if rep.MapCPUPerNode != want {
		t.Fatalf("map CPU per node = %v, want %v (records=%d pairs=%d)",
			rep.MapCPUPerNode, want, records, pairs)
	}
}
