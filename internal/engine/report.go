package engine

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"time"

	"repro/internal/metrics"
	"repro/internal/storage"
)

// Report is the result of a job run, with all sizes rescaled to
// logical (paper-scale) bytes. On the simulation all times are virtual
// cluster time (except WallTime); on the wall-clock backend
// (internal/realexec) the CPU ledgers stay virtual — charged by the
// same cost model — while RunningTime, MapFinishTime, WallTime, and
// Spans are measured host time, and Progress/Samples are absent.
//
// Each field's tags say which runs of one spec may disagree on it:
// `moves` names the kinds and fault causes that may move it between a
// DES run and a wall-clock run, `races` the causes under which two
// wall-clock runs may, and `nonzero` the causes without which a counter
// is zero (see Comparison and Unexplained; simfuzz/evidence_test.go
// backs every moves and races entry). Every other field is identical
// across both substrates and any worker count.
type Report struct {
	Query    string `moves:""`
	Platform string `moves:""`

	// RunningTime is the job makespan; MapFinishTime is when the last
	// map task completed.
	RunningTime   time.Duration `moves:"clock"`
	MapFinishTime time.Duration `moves:"clock"`

	// Per-node CPU consumed by map and reduce work (Table 3 rows).
	MapCPUPerNode    time.Duration `moves:"slow,corruption,kill+checkpoints"`
	ReduceCPUPerNode time.Duration `moves:"order"`

	// Logical byte volumes (Tables 1, 3, 4 rows). MapOutputBytes is
	// the shuffle volume (U3); spills are written bytes.
	InputBytes       int64 `moves:"speculation,corruption,kill+checkpoints"` // U1
	MapSpillBytes    int64 `moves:"speculation,corruption"`                  // U2
	MapOutputBytes   int64 `moves:"corruption,kill+checkpoints"`             // U3 ("Map output / Shuffle")
	ReduceSpillBytes int64 `moves:"order"`                                   // U4 ("Reduce spill")
	OutputBytes      int64 `moves:"order"`                                   // U5 ("Reduce output")

	// TotalIOBytes / TotalIORequests are the measured U and S per
	// cluster (logical), for comparison with the analytical model.
	TotalIOBytes    int64 `moves:"medium"`
	TotalIORequests int64 `moves:"medium"`

	// MemShuffleFetches / DiskShuffleFetches split shuffle fetches by
	// whether they were served from the mapper's memory or its disk
	// (the §3.2(3) reducer-wave effect).
	MemShuffleFetches  int64 `moves:"medium"`
	DiskShuffleFetches int64 `moves:"medium" nonzero:"disk"`

	// In-node combine accounting (zero unless the node-combine stage
	// ran). InputRecords counts the map output pairs absorbed by the
	// per-node tables, OutputRecords the pairs in the merged runs that
	// actually entered the shuffle, and ShuffleBytesSaved the logical
	// shuffle volume the fold removed (absorbed minus published bytes).
	NodeCombineInputRecords  int64 `moves:"" nonzero:"combine"`
	NodeCombineOutputRecords int64 `moves:"" nonzero:"combine"`
	ShuffleBytesSaved        int64 `moves:"" nonzero:"combine"`

	// ShuffleBytesByNode attributes the published shuffle volume
	// (logical bytes) to the node that served it, so combine savings
	// are attributable to skewed nodes. Nil when no shuffle occurred.
	ShuffleBytesByNode []int64 `moves:"speculation,corruption,kill+checkpoints" races:"speculation"`

	// Recovery accounting (fault-injected runs; all zero otherwise): nodes
	// declared dead, completed maps re-run after their output was lost,
	// reduce attempts beyond the first, map backups launched and won,
	// shuffle fetches retried, CPU burnt by failed/aborted/superseded
	// attempts, and reducer checkpoints taken and their logical bytes.
	NodesLost            int           `moves:"" nonzero:"kill"`
	ReExecutedMapTasks   int           `moves:"corruption,kill+checkpoints" nonzero:"kill,corruption+disk"`
	RestartedReduceTasks int           `moves:"corruption" nonzero:"kill,reduce-failures,corruption+disk"`
	SpeculativeBackups   int           `moves:"speculation" nonzero:"speculation"`
	SpeculativeWins      int           `moves:"speculation" races:"speculation" nonzero:"speculation"`
	FetchRetries         int64         `moves:"kill,corruption,reduce-failures+shuffle-errors" races:"kill" nonzero:"kill,shuffle-errors,corruption+disk"`
	WastedCPUPerNode     time.Duration `moves:"kill,speculation,reduce-failures,corruption,slow+map-failures" nonzero:"kill,speculation,map-failures,reduce-failures,corruption"`
	Checkpoints          int64         `moves:"checkpoints" nonzero:"checkpoints"`
	CheckpointBytes      int64         `moves:"checkpoints" nonzero:"checkpoints"`
	// RecoveryReadBytes is what restarts actually re-read: checkpoint
	// restores plus shuffle re-fetches. The recovery experiment compares
	// this across platforms — checkpointed incremental state replays a
	// suffix, sort-merge re-reads everything.
	RecoveryReadBytes int64 `moves:"kill,reduce-failures,corruption" nonzero:"kill,reduce-failures,corruption+disk"`

	// Data-plane integrity accounting: failed checksum verifications
	// (incl. checkpoint images), transient I/O errors retried, torn
	// checkpoint tails recovered, and bad records skipped under the
	// SkipBadRecords budget.
	CorruptFramesDetected int64 `moves:"corruption,torn-writes" nonzero:"corruption,torn-writes+disk"`
	IORetries             int64 `moves:"io-errors" races:"speculation" nonzero:"io-errors"`
	TornWritesRepaired    int64 `moves:"torn-writes" nonzero:"torn-writes+disk"`
	QuarantinedRecords    int64 `moves:"" nonzero:"quarantine"`
	// ChecksumOverheadBytes is the logical framing overhead (headers +
	// CRC trailers) moved on top of payload I/O; ByClass splits it per
	// I/O class. Payload byte counters above never include it.
	ChecksumOverheadBytes   int64                       `moves:"medium" nonzero:"checksums"`
	ChecksumOverheadByClass [storage.NumIOClasses]int64 `moves:"medium" nonzero:"checksums"`

	OutputRecords    int64 `moves:"order"`
	MapInputRecords  int64 `moves:"corruption,kill+checkpoints"`
	MapOutputRecords int64 `moves:"corruption,kill+checkpoints"`
	ApproxKeys       int64 `moves:""`
	// SnapshotRecords counts approximate records emitted by HOP
	// snapshots (not part of the final answer).
	SnapshotRecords int64 `moves:"order"`

	// Progress is the Definition 1 curve; Samples carries the raw
	// timeline / CPU / iowait series.
	Progress []metrics.ProgressPoint `moves:"clock,trace"`
	Samples  []metrics.Sample        `moves:"clock,trace"`

	// Outputs holds all emitted records when CollectOutput was set.
	Outputs [][2]string `moves:"order,trace"`

	// Spans lists every task's lifetime (for trace export).
	Spans []Span `moves:"clock,trace"`

	// Workers is the compute-pool size the job ran with, and WallTime
	// the real (host) time the job took.
	Workers  int           `moves:"host"`
	WallTime time.Duration `moves:"host"`
}

// report assembles the final Report: the shared tail over the node
// stores' sums, then what only the simulation knows.
func (j *job) report(s *metrics.Sampler) *Report {
	j.sums.CorruptFrames = j.ckptCorrupt + j.tornRepaired
	for _, n := range j.nodes {
		j.sums.AddStore(n.store)
	}
	j.sums.Combine = j.combine.Totals()
	r := &Report{
		RunningTime:   j.k.NowDur(),
		MapFinishTime: time.Duration(j.mapFinish),

		MemShuffleFetches:  j.memFetches,
		DiskShuffleFetches: j.diskFetches,

		NodesLost:            j.nodesLost,
		ReExecutedMapTasks:   j.reexecMaps,
		RestartedReduceTasks: j.restartedReduces,
		SpeculativeBackups:   j.specBackups,
		SpeculativeWins:      j.specWins,
		FetchRetries:         j.fetchRetries,
		Checkpoints:          j.checkpoints,

		TornWritesRepaired: j.tornRepaired,
		QuarantinedRecords: j.quarantined,

		OutputRecords:    j.out.Records,
		MapInputRecords:  j.mapInputRecords,
		MapOutputRecords: j.mapOutputRecords,
		ApproxKeys:       j.approxKeys,
		SnapshotRecords:  j.snapshotRecords,

		Samples: s.Samples(),
		Outputs: j.out.Rows,
		Spans:   j.spans,
	}
	j.ReportTail(r, &j.sums)
	r.Progress = metrics.Progress(r.Samples, metrics.Totals{
		MapTasks:  j.TotalMaps,
		Fetches:   j.fetchesDone,
		FnRecords: j.fnRecords,
		OutRecs:   j.out.Records,
	})
	return r
}

// Profile returns a copy of the report without its trace (the fields
// tagged trace: Spans, Samples, Progress, Outputs): the job profile —
// dataflow and cost statistics — that the scheduler persists for each
// run.
func (r *Report) Profile() *Report { return r.Without(Trace) }

// String summarizes the report in one table-style block.
func (r *Report) String() string {
	return fmt.Sprintf(
		"%s on %s: time=%s mapDone=%s mapCPU/node=%s redCPU/node=%s in=%s shuffle=%s mapSpill=%s redSpill=%s out=%s records=%d",
		r.Query, r.Platform,
		r.RunningTime.Round(time.Second), r.MapFinishTime.Round(time.Second),
		r.MapCPUPerNode.Round(time.Second), r.ReduceCPUPerNode.Round(time.Second),
		GB(r.InputBytes), GB(r.MapOutputBytes), GB(r.MapSpillBytes), GB(r.ReduceSpillBytes), GB(r.OutputBytes),
		r.OutputRecords)
}

// GB formats a logical byte count as gigabytes.
func GB(b int64) string {
	return fmt.Sprintf("%.1fGB", float64(b)/1e9)
}

// ReportDiff names the first field in which two reports differ, or ""
// when they are identical: the comparison that lets nothing move.
func ReportDiff(a, b *Report) string { return Comparison{}.Diff(a, b) }

// The kinds a moves tag may name besides fault causes.
const (
	Host   = "host"   // differs between any two runs: the pool size and host time
	Clock  = "clock"  // measured on the driver's clock: virtual on the DES, host time on the wall clock
	Order  = "order"  // follows the order reducers consume map outputs in: publication order on the DES, (chunk, seq) on the wall clock
	Medium = "medium" // follows where the shuffle is served from: the DES's slot cache and disk, the wall clock's memory
	Trace  = "trace"  // the run's trace, which Profile drops
)

// Disk is the cause a nonzero tag joins to counters only a driver whose
// reducers read from disk raises: the DES, whose slot cache spills the
// shuffle. Only DES zero checks pass it.
const Disk = "disk"

// causes reads each fault cause off a spec: one per FaultPlan or
// JobSpec input that may move a Report field or make a counter nonzero.
var causes = []struct {
	name string
	on   func(*JobSpec) bool
}{
	{"kill", func(s *JobSpec) bool { return len(s.Faults.KillAtMapProgress) > 0 }},
	{"slow", func(s *JobSpec) bool { return len(s.Faults.SlowNodes) > 0 }},
	{"speculation", func(s *JobSpec) bool { return s.Faults.Speculate }},
	{"map-failures", func(s *JobSpec) bool { return len(s.Faults.MapFailures) > 0 }},
	{"reduce-failures", func(s *JobSpec) bool { return len(s.Faults.ReduceFailures) > 0 }},
	{"shuffle-errors", func(s *JobSpec) bool { return s.Faults.ShuffleErrorRate > 0 }},
	{"io-errors", func(s *JobSpec) bool { return s.Faults.Disk.IOErrorRate > 0 }},
	{"corruption", func(s *JobSpec) bool { return s.Faults.Disk.CorruptRate > 0 }},
	{"torn-writes", func(s *JobSpec) bool { return s.Faults.Disk.TornWrites }},
	{"checkpoints", func(s *JobSpec) bool { return s.CheckpointEvery > 0 }},
	{"combine", func(s *JobSpec) bool { return s.NodeCombine != NodeCombineOff }},
	{"quarantine", func(s *JobSpec) bool { return s.SkipBadRecords > 0 }},
	{"checksums", func(s *JobSpec) bool { return s.Cluster.Checksums }},
}

// Causes names the causes present in the spec.
func (s *JobSpec) Causes() []string {
	var on []string
	for _, c := range causes {
		if c.on(s) {
			on = append(on, c.name)
		}
	}
	return on
}

// tag splits the key tag of Report field i into its entries.
func tag(i int, key string) []string {
	return strings.FieldsFunc(reflect.TypeFor[Report]().Field(i).Tag.Get(key), func(r rune) bool { return r == ',' })
}

// meets reports whether one of a tag's entries holds given the names
// present: an entry is one name, or names joined by "+" that must all
// be present.
func meets(entries, present []string) bool {
	return slices.ContainsFunc(entries, func(entry string) bool {
		for _, name := range strings.Split(entry, "+") {
			if !slices.Contains(present, name) {
				return false
			}
		}
		return true
	})
}

// A Comparison says which Report fields two runs of one spec may
// disagree on: those with a moves entry that Moves meets, and those
// with a races entry that Races meets. Every other field must be equal.
type Comparison struct{ Moves, Races []string }

// SimRuns compares two DES runs of one spec, at any worker counts: only
// what the host moves may differ.
var SimRuns = Comparison{Moves: []string{Host}}

// RealRuns compares two wall-clock runs of the spec, at any worker
// counts: measured times, the host, and the fields whose races tag
// names a cause present.
func (s *JobSpec) RealRuns() Comparison {
	return Comparison{Moves: []string{Clock, Host}, Races: s.Causes()}
}

// Backends compares a DES run with a wall-clock run of the spec: the
// consumption order, the shuffle medium, the clock and the host may
// move a field, and so may every fault cause present.
func (s *JobSpec) Backends() Comparison {
	return Comparison{Moves: append([]string{Order, Medium, Clock, Host}, s.Causes()...)}
}

// Diff names the first field in which a and b differ although the
// comparison does not let it move, or "" when there is none.
func (c Comparison) Diff(a, b *Report) string {
	av, bv := reflect.ValueOf(a).Elem(), reflect.ValueOf(b).Elem()
	for i := range av.NumField() {
		if !meets(tag(i, "moves"), c.Moves) && !meets(tag(i, "races"), c.Races) &&
			!reflect.DeepEqual(av.Field(i).Interface(), bv.Field(i).Interface()) {
			return av.Type().Field(i).Name
		}
	}
	return ""
}

// Without returns a copy of the report with every field whose moves
// tag names one of kinds zeroed.
func (r *Report) Without(kinds ...string) *Report {
	p := *r
	v := reflect.ValueOf(&p).Elem()
	for i := range v.NumField() {
		if meets(tag(i, "moves"), kinds) {
			v.Field(i).SetZero()
		}
	}
	return &p
}

// Unexplained names the first counter that is nonzero although no
// entry of its nonzero tag holds given the causes present, or "".
func (r *Report) Unexplained(present ...string) string {
	v := reflect.ValueOf(r).Elem()
	for i := range v.NumField() {
		if nz := tag(i, "nonzero"); len(nz) > 0 && !v.Field(i).IsZero() && !meets(nz, present) {
			return v.Type().Field(i).Name
		}
	}
	return ""
}
