package merge

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cost"
	"repro/internal/kvenc"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/storage"
)

// makeRun builds a sorted run of roughly want bytes.
func makeRun(rng *rand.Rand, want int) []byte {
	var raw []byte
	for len(raw) < want {
		raw = kvenc.AppendPair(raw,
			[]byte(fmt.Sprintf("key%08d", rng.Intn(1e8))),
			[]byte("valuepayload-12345678"))
	}
	sorted, _ := kvenc.SortStream(raw)
	return sorted
}

// treeRun is what runTree leaves: the fully merged output and the
// bytes the store counted under the tree's I/O class — spilled is
// everything written (initial runs plus merge outputs: λ at physical
// scale), merged the part merge passes wrote.
type treeRun struct {
	out             []byte
	spilled, merged int64
}

// runTree feeds n runs of b bytes through a Tree with factor f,
// driving merges the way a reduce task would.
func runTree(t *testing.T, n, b, f int) treeRun {
	t.Helper()
	k := sim.NewKernel()
	st := storage.NewStore(k, 0, cost.Default(1), nil)
	tree := NewTree(st, storage.ReduceSpill, "r0", f, 0)
	var res treeRun
	var initial int64
	k.Spawn("reducer", func(p *sim.Proc) {
		rng := rand.New(rand.NewSource(42))
		for i := 0; i < n; i++ {
			run := makeRun(rng, b)
			initial += int64(len(run))
			addRun(tree, p, run)
			for tree.NeedsMerge() {
				tree.MergeOnce(p, nil)
			}
		}
		tree.Complete(p, nil)
		files := len(tree.files)
		res.out = mergeStream(readRuns(tree, p))
		if len(tree.files) != files {
			t.Errorf("Runs deleted %d of %d files", files-len(tree.files), files)
		}
		tree.Drop()
		if len(tree.files) != 0 {
			t.Errorf("Drop left %d files", len(tree.files))
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	res.spilled = st.Counters().WrittenBytes[storage.ReduceSpill]
	res.merged = res.spilled - initial
	return res
}

func TestNoMergeBelowThreshold(t *testing.T) {
	f := 8
	run := runTree(t, 2*f-2, 10_000, f) // one fewer than 2F−1
	if run.merged != 0 {
		t.Fatalf("merged %d bytes below threshold", run.merged)
	}
	if !kvenc.IsSorted(run.out) {
		t.Fatal("final output not sorted")
	}
}

func TestMergeTriggersAtThreshold(t *testing.T) {
	f := 4
	if runTree(t, 2*f-1, 10_000, f).merged == 0 {
		t.Fatal("no merge at 2F−1 files")
	}
}

func TestFinalOutputSortedAndComplete(t *testing.T) {
	run := runTree(t, 40, 8_000, 4)
	if !kvenc.IsSorted(run.out) {
		t.Fatal("not sorted")
	}
	// Every byte written was either an initial spill or a merge write.
	if run.merged <= 0 || run.spilled <= run.merged {
		t.Fatalf("accounting broken: %d spilled, %d of them merged", run.spilled, run.merged)
	}
}

func TestRecordCountPreserved(t *testing.T) {
	k := sim.NewKernel()
	st := storage.NewStore(k, 0, cost.Default(1), nil)
	tree := NewTree(st, storage.ReduceSpill, "r0", 3, 0)
	var got, want int
	k.Spawn("r", func(p *sim.Proc) {
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 20; i++ {
			run := makeRun(rng, 5000)
			want += kvenc.Count(run)
			addRun(tree, p, run)
			for tree.NeedsMerge() {
				tree.MergeOnce(p, nil)
			}
		}
		tree.Complete(p, nil)
		got = kvenc.Count(mergeStream(readRuns(tree, p)))
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("records %d want %d", got, want)
	}
}

func TestEmptyRunIgnored(t *testing.T) {
	k := sim.NewKernel()
	st := storage.NewStore(k, 0, cost.Default(1), nil)
	tree := NewTree(st, storage.ReduceSpill, "r0", 4, 0)
	k.Spawn("r", func(p *sim.Proc) {
		addRun(tree, p, nil)
		if len(tree.files) != 0 {
			t.Error("empty run created a file")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestLambdaCrossValidation is the model↔system check promised in
// DESIGN.md: the bytes the merge tree actually writes must track the
// paper's λ_F(n,b) (Eq. 2). λ was derived for the idealized tree
// shapes n = (F + (F−1)(h−2))·F, so we test those n exactly and allow
// a modest tolerance for the greedy smallest-F policy details.
func TestLambdaCrossValidation(t *testing.T) {
	for _, f := range []int{3, 4, 6} {
		for h := 3; h <= 4; h++ {
			n := (f + (f-1)*(h-2)) * f
			b := 4_000
			got := float64(runTree(t, n, b, f).spilled)
			want := model.Lambda(f, float64(n), float64(b))
			ratio := got / want
			if ratio < 0.80 || ratio > 1.20 {
				t.Errorf("F=%d n=%d: spilled %.0f vs λ=%.0f (ratio %.3f)", f, n, got, want, ratio)
			}
		}
	}
}

// TestMergedBytesDecreaseWithF reproduces the §3.2(2) observation:
// larger merge factors write fewer internal bytes.
func TestMergedBytesDecreaseWithF(t *testing.T) {
	var prev int64 = 1 << 62
	for _, f := range []int{3, 5, 9, 17} {
		merged := runTree(t, 33, 4_000, f).merged
		if merged > prev {
			t.Fatalf("F=%d merged %d > previous %d", f, merged, prev)
		}
		prev = merged
	}
	// F=17 ≥ 33/2: one background merge at most; F=33 would be fully
	// one-pass.
	if merged := runTree(t, 33, 4_000, 33).merged; merged != 0 {
		t.Fatalf("one-pass factor still merged %d bytes", merged)
	}
}

// TestIOChargedToReduceSpillClass checks spills are accounted in the
// right U class.
func TestIOChargedToReduceSpillClass(t *testing.T) {
	k := sim.NewKernel()
	st := storage.NewStore(k, 0, cost.Default(1), nil)
	tree := NewTree(st, storage.ReduceSpill, "r0", 3, 0)
	var initial int64
	k.Spawn("r", func(p *sim.Proc) {
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < 10; i++ {
			run := makeRun(rng, 3000)
			initial += int64(len(run))
			addRun(tree, p, run)
			for tree.NeedsMerge() {
				tree.MergeOnce(p, nil)
			}
		}
		tree.Complete(p, nil)
		readRuns(tree, p)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	c := st.Counters()
	if c.WrittenBytes[storage.ReduceSpill] < initial {
		t.Fatalf("written %d, below the %d bytes of the runs added", c.WrittenBytes[storage.ReduceSpill], initial)
	}
	// Everything written must eventually be read back (merges + final).
	if c.ReadBytes[storage.ReduceSpill] != c.WrittenBytes[storage.ReduceSpill] {
		t.Fatalf("read %d vs written %d", c.ReadBytes[storage.ReduceSpill], c.WrittenBytes[storage.ReduceSpill])
	}
	if c.WrittenBytes[storage.MapSpill] != 0 {
		t.Fatal("wrong class charged")
	}
}

type countingCharger struct{ records int64 }

func (c *countingCharger) ChargeMerge(n int64) { c.records += n }

func TestCPUChargerInvoked(t *testing.T) {
	k := sim.NewKernel()
	st := storage.NewStore(k, 0, cost.Default(1), nil)
	tree := NewTree(st, storage.ReduceSpill, "r0", 3, 0)
	ch := &countingCharger{}
	k.Spawn("r", func(p *sim.Proc) {
		rng := rand.New(rand.NewSource(5))
		for i := 0; i < 12; i++ {
			addRun(tree, p, makeRun(rng, 3000))
			for tree.NeedsMerge() {
				tree.MergeOnce(p, ch.ChargeMerge)
			}
		}
		tree.Complete(p, ch.ChargeMerge)
		readRuns(tree, p)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if ch.records == 0 {
		t.Fatal("merge CPU never charged")
	}
}

func TestBadFactorPanics(t *testing.T) {
	k := sim.NewKernel()
	st := storage.NewStore(k, 0, cost.Default(1), nil)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewTree(st, storage.ReduceSpill, "x", 1, 0)
}

func TestRunsNonDestructive(t *testing.T) {
	k := sim.NewKernel()
	st := storage.NewStore(k, 0, cost.Default(1), nil)
	tree := NewTree(st, storage.ReduceSpill, "r0", 4, 0)
	k.Spawn("r", func(p *sim.Proc) {
		rng := rand.New(rand.NewSource(8))
		for i := 0; i < 5; i++ {
			addRun(tree, p, makeRun(rng, 2000))
		}
		before := len(tree.files)
		peek := mergeStream(readRuns(tree, p))
		if len(tree.files) != before {
			t.Errorf("peek consumed files: %d -> %d", before, len(tree.files))
		}
		// A second peek and the final consumption see the same data.
		peek2 := mergeStream(readRuns(tree, p))
		final := mergeStream(readRuns(tree, p))
		if string(peek) != string(peek2) || string(peek) != string(final) {
			t.Error("peek/final disagree")
		}
		tree.Drop()
		if len(tree.files) != 0 {
			t.Errorf("Drop left %d files", len(tree.files))
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestPeekChargesReads(t *testing.T) {
	k := sim.NewKernel()
	st := storage.NewStore(k, 0, cost.Default(1), nil)
	tree := NewTree(st, storage.ReduceSpill, "r0", 4, 0)
	k.Spawn("r", func(p *sim.Proc) {
		rng := rand.New(rand.NewSource(9))
		addRun(tree, p, makeRun(rng, 2000))
		before := st.Counters().ReadBytes[storage.ReduceSpill]
		tree.Runs(p)
		if st.Counters().ReadBytes[storage.ReduceSpill] <= before {
			t.Error("peek did not charge reads — snapshots would be free")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// addRun stages run and files it with the pair count its producer
// would carry.
func addRun(t *Tree, p *sim.Proc, run []byte) {
	staged := t.store.Stage(run)
	t.AddRun(p, &staged, int64(kvenc.Count(run)))
}

// mergeStream is the final merge of runs the tests trust to be intact.
func mergeStream(runs [][]byte) []byte {
	out, err := kvenc.MergeStreamTo(nil, runs)
	if err != nil {
		panic(err)
	}
	return out
}

// readRuns reads every run of t back whole, through its windows.
func readRuns(t *Tree, p *sim.Proc) [][]byte {
	spills, _ := t.Runs(p)
	return wholeRuns(spills)
}

// wholeRuns copies each spill out in one piece.
func wholeRuns(spills []kvenc.Spill) [][]byte {
	runs := make([][]byte, len(spills))
	for i, s := range spills {
		runs[i] = make([]byte, s.Size)
		s.ReadAt(runs[i], 0)
	}
	return runs
}

// TestRunsCarryTheirCounts: merge CPU is charged from the pair counts
// handed over with the runs — each pass the sum of its inputs', which
// is what a re-scan of the merged file would find — for any pool size;
// the run staged from the caller's buffer is left to the caller, and
// its file reads back what was staged.
func TestRunsCarryTheirCounts(t *testing.T) {
	for _, workers := range []int{1, 3} {
		k := sim.NewKernel()
		k.SetWorkers(workers)
		st := storage.NewStore(k, 0, cost.Default(1), nil)
		tree := NewTree(st, storage.ReduceSpill, "r0", 3, 0)
		k.Spawn("r", func(p *sim.Proc) {
			rng := rand.New(rand.NewSource(5))
			first := makeRun(rng, 3000)
			want := bytes.Clone(first)
			added := int64(kvenc.Count(first))
			addRun(tree, p, first)
			if back := readRuns(tree, p)[0]; !bytes.Equal(back, want) || &back[0] == &first[0] {
				t.Fatal("the first file does not read back a copy of the staged run")
			}
			first[0] ^= 0xff // the caller's buffer is its own again
			for i := 1; i < 12; i++ {
				run := makeRun(rng, 3000)
				added += int64(kvenc.Count(run))
				addRun(tree, p, run)
				for tree.NeedsMerge() {
					var charged int64
					tree.MergeOnce(p, func(n int64) { charged = n })
					runs := readRuns(tree, p)
					if got := int64(kvenc.Count(runs[len(runs)-1])); got != charged {
						t.Fatalf("workers=%d: pass charged for %d records, merged file holds %d", workers, charged, got)
					}
				}
			}
			spills, recs := tree.Runs(p)
			merged := mergeStream(wholeRuns(spills))
			tree.Drop()
			if got := int64(kvenc.Count(merged)); recs != added || got != added {
				t.Fatalf("workers=%d: Runs reports %d pairs, holds %d, %d were added", workers, recs, got, added)
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
	}
}
