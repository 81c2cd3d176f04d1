package merge

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/cost"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/storage"
)

// mergeRef is a pure-arithmetic mirror of the Tree's greedy policy,
// operating on file sizes alone: files are kept in creation order,
// merging picks the F smallest (ties by age, as a stable sort gives),
// removes them, and appends their concatenated size at the end. Merging
// sorted kvenc runs never combines records, so the merged file's size
// is exactly the sum of its inputs and the whole byte accounting is
// predictable without touching data.
type mergeRef struct {
	f      int
	sizes  []int64
	spill  int64
	merged int64
	passes int
}

func (m *mergeRef) add(sz int64) {
	if sz == 0 {
		return
	}
	m.sizes = append(m.sizes, sz)
	m.spill += sz
}

func (m *mergeRef) needsMerge() bool { return len(m.sizes) >= 2*m.f-1 }

func (m *mergeRef) mergeOnce() {
	if len(m.sizes) < m.f {
		return
	}
	idx := make([]int, len(m.sizes))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return m.sizes[idx[a]] < m.sizes[idx[b]] })
	victim := make(map[int]bool, m.f)
	var out int64
	for _, i := range idx[:m.f] {
		victim[i] = true
		out += m.sizes[i]
	}
	kept := m.sizes[:0]
	for i, sz := range m.sizes {
		if !victim[i] {
			kept = append(kept, sz)
		}
	}
	m.sizes = append(kept, out)
	m.spill += out
	m.merged += out
	m.passes++
}

// passCharger counts merge passes and records moved.
type passCharger struct {
	passes  int
	records int64
}

func (c *passCharger) ChargeMerge(n int64) {
	c.passes++
	c.records += n
}

// TestMergePolicyMatchesSizeModel drives randomized (n, b, F) grids
// through the real Tree and the arithmetic mirror in lockstep and
// requires exact byte-level agreement: same spilled bytes, same merged
// bytes, same number of merge passes, same surviving file sizes. It
// then cross-checks the measured spill volume against the paper's
// λ_F(n, b) (Eq. 2), extending the fixed idealized-shape cases of
// TestLambdaCrossValidation to arbitrary points.
func TestMergePolicyMatchesSizeModel(t *testing.T) {
	grid := rand.New(rand.NewSource(20110611))
	for trial := 0; trial < 24; trial++ {
		n := 2 + grid.Intn(59)       // runs: 2..60
		b := 500 + grid.Intn(19_501) // run bytes: 500..20000
		f := 2 + grid.Intn(9)        // factor: 2..10

		k := sim.NewKernel()
		st := storage.NewStore(k, 0, cost.Default(1), nil)
		tree := NewTree(st, storage.ReduceSpill, "r0", f, 0)
		ref := &mergeRef{f: f}
		ch := &passCharger{}
		var totalInitial int64
		k.Spawn("r", func(p *sim.Proc) {
			rng := rand.New(rand.NewSource(int64(trial) + 1000))
			for i := 0; i < n; i++ {
				run := makeRun(rng, b)
				totalInitial += int64(len(run))
				addRun(tree, p, run)
				ref.add(int64(len(run)))
				for tree.NeedsMerge() {
					tree.MergeOnce(p, ch.ChargeMerge)
					ref.mergeOnce()
				}
			}
			tree.Complete(p, ch.ChargeMerge)
			for ref.needsMerge() {
				ref.mergeOnce()
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}

		// What the tree wrote, as the store counted it: every byte under
		// its class, and the part beyond the initial runs.
		spilled := st.Counters().WrittenBytes[storage.ReduceSpill]
		if spilled != ref.spill {
			t.Errorf("n=%d b=%d F=%d: spilled %d, size-model %d", n, b, f, spilled, ref.spill)
		}
		if merged := spilled - totalInitial; merged != ref.merged {
			t.Errorf("n=%d b=%d F=%d: merged %d, size-model %d", n, b, f, merged, ref.merged)
		}
		if ch.passes != ref.passes {
			t.Errorf("n=%d b=%d F=%d: %d merge passes, size-model %d", n, b, f, ch.passes, ref.passes)
		}
		if len(tree.files) != len(ref.sizes) {
			t.Errorf("n=%d b=%d F=%d: %d files left, size-model %d", n, b, f, len(tree.files), len(ref.sizes))
		}
		if len(tree.files) >= 2*f-1 {
			t.Errorf("n=%d b=%d F=%d: %d files ≥ 2F−1 after Complete", n, b, f, len(tree.files))
		}
		// Below the 2F−1 trigger nothing merges: writes are exactly the
		// initial runs.
		if n < 2*f-1 && spilled != totalInitial {
			t.Errorf("n=%d b=%d F=%d: no merge expected, spilled %d vs initial %d",
				n, b, f, spilled, totalInitial)
		}
		// λ_F cross-check at the actual mean run size. Eq. 2 was derived
		// for idealized full merge trees; arbitrary (n, F) points track
		// it within a broader band than TestLambdaCrossValidation's
		// idealized shapes (λ can overshoot the n·b floor by ~25% just
		// below the merge threshold).
		bAvg := float64(totalInitial) / float64(n)
		want := model.Lambda(f, float64(n), bAvg)
		ratio := float64(spilled) / want
		if ratio < 0.65 || ratio > 1.35 {
			t.Errorf("n=%d b=%d F=%d: spilled %d vs λ=%.0f (ratio %.3f outside [0.65,1.35])",
				n, b, f, spilled, want, ratio)
		}
	}
}

// TestMergePreservesBytesExactly pins the size-addition premise the
// arithmetic mirror rests on: a merge pass's output is byte-for-byte
// the sum of its inputs (kvenc merging reorders pairs, never rewrites
// them).
func TestMergePreservesBytesExactly(t *testing.T) {
	k := sim.NewKernel()
	st := storage.NewStore(k, 0, cost.Default(1), nil)
	tree := NewTree(st, storage.ReduceSpill, "r0", 3, 0)
	k.Spawn("r", func(p *sim.Proc) {
		rng := rand.New(rand.NewSource(4))
		var in int64
		for i := 0; i < 3; i++ {
			run := makeRun(rng, 2500)
			in += int64(len(run))
			addRun(tree, p, run)
		}
		tree.MergeOnce(p, nil)
		out := mergeStream(readRuns(tree, p))
		if int64(len(out)) != in {
			t.Errorf("merged %d bytes from %d input bytes", len(out), in)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}
