package merge

import (
	"math/rand"
	"testing"

	"repro/internal/cost"
	"repro/internal/sim"
	"repro/internal/storage"
)

// BenchmarkTreeMerge drives a full multi-pass merge — spill, background
// merges, final streaming merge — through the simulated store. The sim
// kernel adds only bookkeeping; the time is dominated by the merge and
// copy kernels this PR optimizes.
func BenchmarkTreeMerge(b *testing.B) {
	const (
		nRuns    = 24
		runBytes = 32 << 10
		factor   = 4
	)
	rng := rand.New(rand.NewSource(42))
	runs := make([][]byte, nRuns)
	var total int64
	for i := range runs {
		runs[i] = makeRun(rng, runBytes)
		total += int64(len(runs[i]))
	}
	b.SetBytes(total)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := sim.NewKernel()
		st := storage.NewStore(k, 0, cost.Default(1), nil)
		tree := NewTree(st, storage.ReduceSpill, "r0", factor, 0)
		k.Spawn("reducer", func(p *sim.Proc) {
			for _, run := range runs {
				addRun(tree, p, run)
				for tree.NeedsMerge() {
					tree.MergeOnce(p, nil)
				}
			}
			tree.Complete(p, nil)
			mergeStream(readRuns(tree, p))
		})
		if err := k.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
