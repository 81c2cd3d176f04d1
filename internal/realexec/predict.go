package realexec

import (
	"math/bits"
	"runtime"

	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/mr"
	"repro/internal/storage"
)

// What a run holds per task beside its buffers, measured with
// runtime.MemProfileRate = 1 on the benchmark spec: a map task's slot,
// chain, result, span and published unit, plus its partition sizes; a
// reduce task's chain and attempt state; and a map output's header per
// partition (segment, record count, offsets) with its size-class slack.
const (
	mapTaskBytes    = 512
	reduceTaskBytes = 4 << 10
	partitionBytes  = 128
)

// PeakHeap predicts the most live heap one run of job holds on the wall
// clock, in bytes, from the spec alone. Since map outputs are capped and
// spills live on disk it is the sum of
//
//   - the resident map outputs: the residency cap × one chunk's output,
//     C·Km by the query's hint, plus a header per partition;
//   - one B_r buffer or table per reduce task, at its pool-class size;
//   - one write-behind page (≤ 16 KB) per spill file, model.SpillFiles
//     of them per reduce task;
//   - one input chunk and one B_m collector per map worker;
//   - per reduce slot, what a final phase holds: where runs are merged
//     or buckets of pairs drained, the task's whole share of the map
//     output read back and as much again merged; on the incremental
//     platforms one bucket, sized to fit B_r;
//   - the bookkeeping of every map and reduce task;
//   - where an incremental platform checkpoints, each reduce task's
//     newest image and its fallback, and per reduce slot one image
//     being built (the snapshot and its encoding). An image holds the
//     table (B_r) and the spilled buckets (at most the task's share of
//     the map output).
func PeakHeap(job engine.JobSpec, newQuery func() mr.Query) (int64, error) {
	job.Query = newQuery()
	f, err := engine.NewJobFrame(&job)
	if err != nil {
		return 0, err
	}
	cl := &job.Cluster
	maps, reducers := int64(f.TotalMaps), int64(f.NumReducers)
	chunk := f.InputBytesEst / maps
	workers := int64(cl.Parallelism)
	if workers <= 0 {
		workers = int64(runtime.GOMAXPROCS(0))
	}
	w := model.Workload{D: float64(f.InputBytesEst), Km: job.Hints.Km}
	h := model.Hardware{N: cl.Nodes, Br: float64(cl.ReduceBuffer)}
	p := model.Params{R: cl.R, F: cl.MergeFactor}
	share := int64(w.D * w.Km / float64(reducers))
	slots := min(workers, reducers)
	final, images := 2*share, int64(0)
	if job.Platform.Incremental() {
		final = poolClass(cl.ReduceBuffer)
		if job.CheckpointEvery > 0 {
			images = 2 * (reducers + slots) * (poolClass(cl.ReduceBuffer) + share)
		}
	}
	resident := min(int64(residencyCap(&job, f.NewCombinePlan())), maps)
	return resident*(int64(float64(chunk)*w.Km)+partitionBytes*reducers) +
		reducers*(poolClass(cl.ReduceBuffer)+int64(model.SpillFiles(w, h, p))*storage.ScratchPage+reduceTaskBytes) +
		workers*(chunk+poolClass(cl.MapBuffer)) + slots*final + images +
		maps*(mapTaskBytes+8*reducers), nil
}

// poolClass is the bytestore size class a buffer of n bytes is drawn
// from: the next power of two, at least 1 KiB.
func poolClass(n int64) int64 {
	return max(1<<10, int64(1)<<bits.Len64(uint64(n-1)))
}
