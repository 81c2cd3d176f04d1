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
// chain, result and span; a reduce task's chain and attempt state; a
// map output's header per partition; and per partition of a parked
// output, its size and segment index.
const (
	mapTaskBytes    = 512
	reduceTaskBytes = 4 << 10
	partitionBytes  = 128
	parkedBytes     = 32
)

// PeakHeap predicts the most live heap one run of job holds on the wall
// clock, in bytes, from the spec alone. Map outputs past the cap and
// spills live on disk, so it is the sum of
//
//   - the resident map outputs: the residency cap (window) × one
//     chunk's output, C·Km by the query's hint, plus a header per
//     partition; the free list's backings are within it (run.taken);
//   - where chunks deposit, per concurrent fold its group's share of
//     the map output twice: the member runs and their aggregate;
//   - one B_r buffer or table per reduce task, at its pool-class size
//     (for sort-merge a bound on the pages holding what it buffered);
//   - one write-behind page (≤ 16 KB) per spill file, model.SpillFiles
//     of them per reduce task;
//   - one input chunk and one B_m collector per map worker;
//   - per reduce slot, what a final phase holds: where runs merge or
//     buckets of pairs drain, the task's share of the map output twice
//     (read back and merged); on the incremental platforms one bucket;
//   - the bookkeeping of every map and reduce task and parked output;
//   - where an incremental platform checkpoints, each reduce task's
//     newest image and its fallback, and per reduce slot one image
//     being built, each the table (B_r) and per disk bucket a copy of
//     its write-behind page and write buffer (the files are held by
//     reference): at most one bucket per 4/5 B_r of the reducer's
//     expected states, at DINC-hash's 64 B a key beside the state.
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
		if inc, ok := job.Query.(mr.Incremental); ok && job.CheckpointEvery > 0 {
			states := job.Hints.DistinctKeys * int64(inc.StateSize()+64) / reducers
			buckets := max(1, (states*5/4+cl.ReduceBuffer-1)/cl.ReduceBuffer)
			images = 2 * (reducers + slots) * (poolClass(cl.ReduceBuffer) + buckets*(storage.ScratchPage+cl.Page))
		}
	}
	folds, perMap := int64(0), int64(mapTaskBytes)
	if groups := int64(len(f.NewCombinePlan().Groups)); groups > 0 {
		folds = min(workers, groups) * 2 * int64(w.D*w.Km) / groups
	}
	if job.ReduceRestarts() {
		perMap += parkedBytes * reducers
	}
	resident := min(int64(window(cl, f.NumReducers)), maps)
	return resident*(int64(float64(chunk)*w.Km)+partitionBytes*reducers) +
		reducers*(poolClass(cl.ReduceBuffer)+int64(model.SpillFiles(w, h, p))*storage.ScratchPage+reduceTaskBytes) +
		workers*(chunk+poolClass(cl.MapBuffer)) + slots*final + folds + images + maps*perMap, nil
}

// poolClass is the bytestore size class a buffer of n bytes is drawn
// from: the next power of two, at least 1 KiB.
func poolClass(n int64) int64 {
	return max(1<<10, int64(1)<<bits.Len64(uint64(n-1)))
}
