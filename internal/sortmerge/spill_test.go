package sortmerge

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/substrate"
)

// onBothBackends runs fn on a store of each substrate whose spill files
// live in scratch file sc: a DES store inside a one-process simulation,
// and a wall-clock store.
func onBothBackends(t *testing.T, fn func(t *testing.T, rt *core.Runtime, sc *storage.Scratch)) {
	m := cost.Default(1)
	scratch := func(t *testing.T) *storage.Scratch {
		t.Setenv("TMPDIR", t.TempDir())
		sc, err := storage.OpenScratch()
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sc.Close() })
		return sc
	}
	t.Run("des", func(t *testing.T) {
		k := sim.NewKernel()
		sc := scratch(t)
		st := storage.NewStore(k, 0, m, sc)
		k.Spawn("task", func(p *sim.Proc) { fn(t, core.NopRuntime(p, st, m), sc) })
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("wall", func(t *testing.T) {
		sc := scratch(t)
		st := storage.NewWallStore(0, m, sc)
		fn(t, core.NopRuntime(substrate.NewWallProc(time.Now()), st, m), sc)
	})
}

// TestSpillsLeaveTheHeapOnBothBackends: sort-merge stages every map and
// reduce spill, merge passes included, into the scratch file, each byte
// written there once (a staged run holds no heap bytes:
// storage.TestStagedSpillsHoldNoHeap); the final merge then reads each
// on-disk run through its one window.
func TestSpillsLeaveTheHeapOnBothBackends(t *testing.T) {
	onBothBackends(t, func(t *testing.T, rt *core.Runtime, sc *storage.Scratch) {
		const maps, adds, keys = 3, 3000, 1000
		r := NewReducer(rt, rawOnly{}, ReducerConfig{Prefix: "r0", Buffer: 4 << 10, MergeFactor: 3, ReadSegment: 512})
		for m := range maps {
			c := NewMapCollector(rt, rawOnly{}, MapCollectorConfig{
				Prefix: fmt.Sprintf("m%d", m), Partitions: 2, Buffer: 2 << 10, MergeFactor: 2, ReadSegment: 512,
			})
			for i := range adds {
				c.Add([]byte(fmt.Sprintf("key%05d", i%keys)), []byte("1"))
			}
			out, _, _ := c.Finish()
			for i, seg := range out.Segs[0] {
				r.Consume(seg, out.Recs[0][i])
			}
		}
		written := rt.Store.Counters().WrittenBytes
		if written[storage.MapSpill] == 0 || written[storage.ReduceSpill] == 0 {
			t.Fatalf("test setup: %d map-spill and %d reduce-spill bytes written", written[storage.MapSpill], written[storage.ReduceSpill])
		}
		if n := written[storage.MapSpill] + written[storage.ReduceSpill]; sc.Size() != n {
			t.Fatalf("the scratch file holds %d bytes after %d spill bytes were written", sc.Size(), n)
		}
		r.PrepareFinal()
		if len(r.finalRuns) < 2 {
			t.Fatalf("test setup: %d on-disk runs at the final merge", len(r.finalRuns))
		}
		buffers := make([]map[*byte]bool, len(r.finalRuns))
		for i := range r.finalRuns {
			s, seen := &r.finalRuns[i], map[*byte]bool{}
			read := s.ReadAt
			s.ReadAt = func(dst []byte, off int64) {
				seen[&dst[:cap(dst)][cap(dst)-1]] = true // a buffer by its last byte
				read(dst, off)
			}
			buffers[i] = seen
		}
		got := &mapOut{m: map[string]int64{}}
		r.Finish(got)
		for i, seen := range buffers {
			if len(seen) > 1 {
				t.Fatalf("on-disk run %d was read into %d buffers, want its one window", i, len(seen))
			}
		}
		if len(got.m) == 0 {
			t.Fatal("partition 0 reduced no key")
		}
		for k, n := range got.m {
			if n != maps*adds/keys {
				t.Fatalf("key %s reduced to %d, want %d", k, n, maps*adds/keys)
			}
		}
	})
}
