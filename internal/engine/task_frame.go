package engine

import (
	"math"
	"time"

	"repro/internal/dfs"
	"repro/internal/hashfam"
	"repro/internal/storage"
)

// JobFrame is what both backends must say identically around a run:
// before any task starts, the validated spec, the task counts, the hash
// family every collector and reducer draws from and the node each
// chunk's map task is assigned to and the chunk prefix each kill fires
// at; during it, the fault plan's interpretation (task_faults.go);
// afterwards, the Report fields that follow from the run's summed
// counters (ReportTail). engine.Run and realexec.Run both start from
// NewJobFrame (realexec adds only its capability check), so neither can
// derive a seed, a kill point, a placement or a counter its own way.
type JobFrame struct {
	NumReducers   int
	TotalMaps     int
	InputBytesEst int64 // chunk 0's size × chunks: what reducers size their tables from
	Fam           *hashfam.Family
	// KillAfter maps each node in Faults.KillAtMapProgress to K =
	// ceil(fraction × TotalMaps), clamped to [1, TotalMaps]: the node
	// dies once chunks 0…K-1 have completed (task_faults.go).
	KillAfter map[int]int

	spec   *JobSpec
	assign dfs.Assignment
}

// NewJobFrame validates spec in place (filling defaults) and derives
// the frame from it. The frame keeps the pointer.
func NewJobFrame(spec *JobSpec) (*JobFrame, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	cfg := &spec.Cluster
	f := &JobFrame{
		NumReducers: cfg.R * cfg.Nodes,
		TotalMaps:   spec.Input.NumChunks(),
		Fam:         hashfam.NewFamily(spec.Seed ^ 0x0fa57),
		spec:        spec,
		assign:      dfs.NewAssignment(spec.Input, dfs.NewPlacement(cfg.Nodes, cfg.Replication)),
	}
	if f.TotalMaps == 0 {
		return nil, errSpec("input has no chunks")
	}
	f.InputBytesEst = int64(len(spec.Input.ChunkBytes(0))) * int64(f.TotalMaps)
	if kills := spec.Faults.KillAtMapProgress; len(kills) > 0 {
		f.KillAfter = make(map[int]int, len(kills))
		for idx, frac := range kills {
			f.KillAfter[idx] = min(max(int(math.Ceil(frac*float64(f.TotalMaps))), 1), f.TotalMaps)
		}
	}
	return f, nil
}

// Node is the node chunk's map task is assigned to: its primary replica
// (perfectly local with round-robin placement, as the model assumes).
func (f *JobFrame) Node(chunk int) int { return f.assign.Node(chunk) }

// ReportSums is what a driver adds up over a run for ReportTail: every
// store it opened (AddStore) and the cluster-wide ledgers below. Bytes
// are physical; the tail rescales them.
type ReportSums struct {
	IO            storage.Counters
	IORetries     int64
	CorruptFrames int64 // failed checksum verifications: the stores', plus checkpoint images the driver found damaged

	MapCPU, ReduceCPU, WastedCPU int64 // virtual ns; wasted = failed, aborted and superseded attempts

	RefetchBytes  int64   // shuffle bytes fetched again by restarted reduce attempts
	ShuffleByNode []int64 // shuffle bytes published, per serving node
	Combine       CombineTotals
}

// AddStore folds one store's I/O and integrity counters into the sums.
func (s *ReportSums) AddStore(st *storage.Store) {
	s.IO.Add(st.Counters())
	s.IORetries += st.IORetries()
	s.CorruptFrames += st.CorruptFramesDetected()
}

// ReportTail fills every Report field that is a pure function of the
// summed counters, the cost model and the cluster shape. A driver sets
// only what is genuinely its own — times, the record counts it tallied,
// recovery events, Progress/Samples, Spans, Outputs — and
// TestReportTailOwnsItsFields fails on a field neither side claims.
func (f *JobFrame) ReportTail(r *Report, s *ReportSums) {
	m := f.spec.Cluster.Model
	nodes := int64(f.spec.Cluster.Nodes)
	c := &s.IO
	r.Query, r.Platform = f.spec.Query.Name(), f.spec.Platform.String()
	r.MapCPUPerNode = time.Duration(s.MapCPU / nodes)
	r.ReduceCPUPerNode = time.Duration(s.ReduceCPU / nodes)
	r.WastedCPUPerNode = time.Duration(s.WastedCPU / nodes)

	r.InputBytes = m.LogicalBytes(c.ReadBytes[storage.MapInput])
	r.MapSpillBytes = m.LogicalBytes(c.WrittenBytes[storage.MapSpill])
	r.MapOutputBytes = m.LogicalBytes(c.WrittenBytes[storage.MapOutput])
	r.ReduceSpillBytes = m.LogicalBytes(c.WrittenBytes[storage.ReduceSpill])
	r.OutputBytes = m.LogicalBytes(c.WrittenBytes[storage.ReduceOutput])
	r.TotalIOBytes = m.LogicalBytes(c.TotalBytes())
	r.TotalIORequests = c.TotalReqs()

	r.NodeCombineInputRecords = s.Combine.InPairs
	r.NodeCombineOutputRecords = s.Combine.OutPairs
	r.ShuffleBytesSaved = m.LogicalBytes(s.Combine.SavedBytes)
	var shuffled int64
	for _, b := range s.ShuffleByNode {
		shuffled += b
	}
	if shuffled > 0 { // nil when no shuffle occurred
		r.ShuffleBytesByNode = make([]int64, len(s.ShuffleByNode))
		for i, b := range s.ShuffleByNode {
			r.ShuffleBytesByNode[i] = m.LogicalBytes(b)
		}
	}

	r.CheckpointBytes = m.LogicalBytes(c.WrittenBytes[storage.Checkpoint])
	r.RecoveryReadBytes = m.LogicalBytes(c.ReadBytes[storage.Checkpoint] + s.RefetchBytes)
	r.IORetries = s.IORetries
	r.CorruptFramesDetected = s.CorruptFrames
	for i := 0; i < int(storage.NumIOClasses); i++ {
		r.ChecksumOverheadByClass[i] = m.LogicalBytes(c.OverheadBytes[i])
		r.ChecksumOverheadBytes += r.ChecksumOverheadByClass[i]
	}
}
