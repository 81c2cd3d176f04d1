package engine

import (
	"fmt"
	"reflect"
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
// Every answer-derived field (record counts, byte volumes, outputs) is
// identical across both substrates and any worker count.
type Report struct {
	Query    string
	Platform string

	// RunningTime is the job makespan; MapFinishTime is when the last
	// map task completed.
	RunningTime   time.Duration
	MapFinishTime time.Duration

	// Per-node CPU consumed by map and reduce work (Table 3 rows).
	MapCPUPerNode    time.Duration
	ReduceCPUPerNode time.Duration

	// Logical byte volumes (Tables 1, 3, 4 rows). MapOutputBytes is
	// the shuffle volume (U3); spills are written bytes.
	InputBytes       int64 // U1
	MapSpillBytes    int64 // U2
	MapOutputBytes   int64 // U3 ("Map output / Shuffle")
	ReduceSpillBytes int64 // U4 ("Reduce spill")
	OutputBytes      int64 // U5 ("Reduce output")

	// TotalIOBytes / TotalIORequests are the measured U and S per
	// cluster (logical), for comparison with the analytical model.
	TotalIOBytes    int64
	TotalIORequests int64

	// MemShuffleFetches / DiskShuffleFetches split shuffle fetches by
	// whether they were served from the mapper's memory or its disk
	// (the §3.2(3) reducer-wave effect).
	MemShuffleFetches  int64
	DiskShuffleFetches int64

	// In-node combine accounting (zero unless the node-combine stage
	// ran). InputRecords counts the map output pairs absorbed by the
	// per-node tables, OutputRecords the pairs in the merged runs that
	// actually entered the shuffle, and ShuffleBytesSaved the logical
	// shuffle volume the fold removed (absorbed minus published bytes).
	NodeCombineInputRecords  int64
	NodeCombineOutputRecords int64
	ShuffleBytesSaved        int64

	// ShuffleBytesByNode attributes the published shuffle volume
	// (logical bytes) to the node that served it, so combine savings
	// are attributable to skewed nodes. Nil when no shuffle occurred.
	ShuffleBytesByNode []int64

	// Recovery accounting (fault-injected runs; all zero otherwise).
	NodesLost            int           // nodes declared dead by the failure detector
	ReExecutedMapTasks   int           // completed maps re-run after their output was lost
	RestartedReduceTasks int           // reduce attempts beyond the first (failures + node loss)
	SpeculativeBackups   int           // backup attempts launched for map stragglers
	SpeculativeWins      int           // tasks where the backup finished first
	FetchRetries         int64         // shuffle fetches retried against crashed nodes
	WastedCPUPerNode     time.Duration // CPU burnt by failed/aborted/superseded attempts
	Checkpoints          int64         // reducer checkpoints taken
	CheckpointBytes      int64         // logical bytes written as checkpoints
	// RecoveryReadBytes is what restarts actually re-read: checkpoint
	// restores plus shuffle re-fetches. The recovery experiment compares
	// this across platforms — checkpointed incremental state replays a
	// suffix, sort-merge re-reads everything.
	RecoveryReadBytes int64

	// Data-plane integrity accounting (all zero unless Cluster.Checksums
	// or a DiskFaultPlan is set).
	CorruptFramesDetected int64 // checksum verifications that failed (incl. checkpoint images)
	IORetries             int64 // transient I/O errors injected and retried
	TornWritesRepaired    int64 // torn checkpoint tails detected, recovered via fallback
	QuarantinedRecords    int64 // bad records skipped under the SkipBadRecords budget
	// ChecksumOverheadBytes is the logical framing overhead (headers +
	// CRC trailers) moved on top of payload I/O; ByClass splits it per
	// I/O class. Payload byte counters above never include it.
	ChecksumOverheadBytes   int64
	ChecksumOverheadByClass [storage.NumIOClasses]int64

	OutputRecords    int64
	MapInputRecords  int64
	MapOutputRecords int64
	ApproxKeys       int64
	// SnapshotRecords counts approximate records emitted by HOP
	// snapshots (not part of the final answer).
	SnapshotRecords int64

	// Progress is the Definition 1 curve; Samples carries the raw
	// timeline / CPU / iowait series.
	Progress []metrics.ProgressPoint
	Samples  []metrics.Sample

	// Outputs holds all emitted records when CollectOutput was set.
	Outputs [][2]string

	// Spans lists every task's lifetime (for trace export).
	Spans []Span

	// Workers is the compute-pool size the job ran with, and WallTime
	// the real (host) time the simulation took — the only field that
	// varies with Workers; everything else is bit-for-bit identical
	// for any pool size.
	Workers  int
	WallTime time.Duration
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

// Profile returns a copy of the report without its trace (Spans,
// Samples, Progress, Outputs): the job profile — dataflow and cost
// statistics — that the scheduler persists for each run.
func (r *Report) Profile() *Report {
	p := *r
	p.Spans, p.Samples, p.Progress, p.Outputs = nil, nil, nil, nil
	return &p
}

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
// when they are identical — so a determinism failure points at the
// leaking subsystem instead of dumping two multi-KB structs. Used by
// the in-package determinism tests and the simfuzz conformance
// harness.
func ReportDiff(a, b *Report) string {
	av := reflect.ValueOf(*a)
	bv := reflect.ValueOf(*b)
	tp := av.Type()
	for i := 0; i < tp.NumField(); i++ {
		if !reflect.DeepEqual(av.Field(i).Interface(), bv.Field(i).Interface()) {
			return tp.Field(i).Name
		}
	}
	return ""
}
