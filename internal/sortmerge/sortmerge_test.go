package sortmerge

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/kvenc"
	"repro/internal/mr"
	"repro/internal/sim"
	"repro/internal/storage"
)

// sumQuery counts per key; implements Query and Combiner.
type sumQuery struct{}

func (sumQuery) Name() string { return "sum" }
func (sumQuery) Map(record []byte, emit func(k, v []byte)) {
	emit(record, []byte("1"))
}
func sum(values kvenc.ValueIter) int64 {
	var t int64
	for {
		v, ok := values.Next()
		if !ok {
			return t
		}
		n, _ := strconv.ParseInt(string(v), 10, 64)
		t += n
	}
}
func (sumQuery) Reduce(key []byte, values kvenc.ValueIter, out mr.OutputWriter) {
	out.Emit(key, []byte(strconv.FormatInt(sum(values), 10)))
}
func (sumQuery) Combine(key []byte, values kvenc.ValueIter, emit func(v []byte)) {
	emit([]byte(strconv.FormatInt(sum(values), 10)))
}

// rawOnly is the same query without a combine function.
type rawOnly struct{}

func (rawOnly) Name() string                         { return "raw" }
func (rawOnly) Map(r []byte, emit func(k, v []byte)) { emit(r, []byte("1")) }
func (rawOnly) Reduce(k []byte, v kvenc.ValueIter, out mr.OutputWriter) {
	out.Emit(k, []byte(strconv.FormatInt(sum(v), 10)))
}

func runSim(t *testing.T, fn func(rt *core.Runtime)) {
	t.Helper()
	k := sim.NewKernel()
	st := storage.NewStore(k, 0, cost.Default(1), nil)
	k.Spawn("task", func(p *sim.Proc) { fn(core.NopRuntime(p, st, cost.Default(1))) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestMapCollectorSingleSpill(t *testing.T) {
	runSim(t, func(rt *core.Runtime) {
		c := NewMapCollector(rt, rawOnly{}, MapCollectorConfig{
			Prefix: "m0", Partitions: 4, Buffer: 1 << 20, MergeFactor: 10,
		})
		for i := 0; i < 5000; i++ {
			c.Add([]byte(fmt.Sprintf("key%05d", i%700)), []byte("1"))
		}
		out, mapped, emitted := c.Finish()
		parts := out.Segs
		if mapped != 5000 || emitted != 5000 {
			t.Fatalf("mapped=%d emitted=%d", mapped, emitted)
		}
		if rt.Store.Counters().WrittenBytes[storage.MapSpill] != 0 {
			t.Fatal("spilled despite fitting buffer")
		}
		// Each partition: exactly one sorted segment, disjoint keys.
		seen := map[string]int{}
		for pi, segs := range parts {
			if len(segs) > 1 {
				t.Fatalf("partition %d has %d segments", pi, len(segs))
			}
			for _, seg := range segs {
				if !kvenc.IsSorted(seg) {
					t.Fatalf("partition %d not sorted", pi)
				}
				it := kvenc.NewIterator(seg)
				for {
					k, _, ok := it.Next()
					if !ok {
						break
					}
					if p, dup := seen[string(k)]; dup && p != pi {
						t.Fatalf("key %s in partitions %d and %d", k, p, pi)
					}
					seen[string(k)] = pi
				}
				if err := it.Err(); err != nil {
					t.Fatalf("corrupt segment: %v", err)
				}
			}
		}
		if len(seen) != 700 {
			t.Fatalf("distinct keys %d", len(seen))
		}
	})
}

func TestMapCollectorExternalSort(t *testing.T) {
	runSim(t, func(rt *core.Runtime) {
		c := NewMapCollector(rt, rawOnly{}, MapCollectorConfig{
			Prefix: "m0", Partitions: 2, Buffer: 8 << 10, MergeFactor: 3,
		})
		for i := 0; i < 8000; i++ {
			c.Add([]byte(fmt.Sprintf("key%06d", (i*7919)%5000)), []byte("1"))
		}
		out, _, emitted := c.Finish()
		parts := out.Segs
		if emitted != 8000 {
			t.Fatalf("emitted=%d", emitted)
		}
		if rt.Store.Counters().WrittenBytes[storage.MapSpill] == 0 {
			t.Fatal("expected external sort spills (C·Km > Bm)")
		}
		total := 0
		for _, segs := range parts {
			for _, seg := range segs {
				if !kvenc.IsSorted(seg) {
					t.Fatal("final output not sorted")
				}
				total += kvenc.Count(seg)
			}
		}
		if total != 8000 {
			t.Fatalf("total=%d", total)
		}
	})
}

func TestMapCollectorCombine(t *testing.T) {
	runSim(t, func(rt *core.Runtime) {
		c := NewMapCollector(rt, sumQuery{}, MapCollectorConfig{
			Prefix: "m0", Partitions: 2, Buffer: 1 << 20, MergeFactor: 10,
		})
		for i := 0; i < 6000; i++ {
			c.Add([]byte(fmt.Sprintf("key%02d", i%20)), []byte("1"))
		}
		out, _, emitted := c.Finish()
		parts := out.Segs
		if emitted != 20 {
			t.Fatalf("emitted=%d, want 20 combined records", emitted)
		}
		var total int64
		for _, segs := range parts {
			for _, seg := range segs {
				it := kvenc.NewIterator(seg)
				for {
					_, v, ok := it.Next()
					if !ok {
						break
					}
					n, _ := strconv.ParseInt(string(v), 10, 64)
					total += n
				}
				if err := it.Err(); err != nil {
					t.Fatalf("corrupt segment: %v", err)
				}
			}
		}
		if total != 6000 {
			t.Fatalf("combined total %d", total)
		}
	})
}

// sortedRun builds a sorted encoded run from keys.
func sortedRun(keys []string) []byte {
	var raw []byte
	for _, k := range keys {
		raw = kvenc.AppendPair(raw, []byte(k), []byte("1"))
	}
	out, _ := kvenc.SortStream(raw)
	return out
}

// consume feeds one run with the pair count its mapper would carry.
func consume(r *Reducer, run []byte) { r.Consume(run, int64(kvenc.Count(run))) }

type mapOut struct{ m map[string]int64 }

func (o *mapOut) Emit(k, v []byte) {
	n, _ := strconv.ParseInt(string(v), 10, 64)
	o.m[string(k)] += n
}

func TestReducerCorrectnessWithSpills(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	want := map[string]int64{}
	runSim(t, func(rt *core.Runtime) {
		r := NewReducer(rt, rawOnly{}, ReducerConfig{
			Prefix: "r0", Buffer: 4 << 10, MergeFactor: 3,
		})
		for seg := 0; seg < 60; seg++ {
			var keys []string
			for i := 0; i < 100; i++ {
				k := fmt.Sprintf("key%04d", rng.Intn(900))
				keys = append(keys, k)
				want[k]++
			}
			consume(r, sortedRun(keys))
			if r.MergeDue() {
				r.Merge()
			}
		}
		if rt.Store.Counters().WrittenBytes[storage.ReduceSpill] == 0 {
			t.Fatal("expected shuffle-buffer spills")
		}
		out := &mapOut{m: map[string]int64{}}
		r.Finish(out)
		if len(out.m) != len(want) {
			t.Fatalf("keys %d vs %d", len(out.m), len(want))
		}
		for k, w := range want {
			if out.m[k] != w {
				t.Fatalf("key %s: %d want %d", k, out.m[k], w)
			}
		}
	})
}

func TestReducerCombinerShrinksSpill(t *testing.T) {
	feed := func(q mr.Query) (spilled int64, result map[string]int64) {
		runSim(t, func(rt *core.Runtime) {
			r := NewReducer(rt, q, ReducerConfig{Prefix: "r0", Buffer: 4 << 10, MergeFactor: 4})
			for seg := 0; seg < 50; seg++ {
				var keys []string
				for i := 0; i < 200; i++ {
					keys = append(keys, fmt.Sprintf("key%01d", i%8)) // heavy duplication
				}
				consume(r, sortedRun(keys))
				if r.MergeDue() {
					r.Merge()
				}
			}
			out := &mapOut{m: map[string]int64{}}
			r.Finish(out)
			spilled, result = rt.Store.Counters().WrittenBytes[storage.ReduceSpill], out.m
		})
		return
	}
	spillComb, resComb := feed(sumQuery{})
	spillRaw, resRaw := feed(rawOnly{})
	if spillComb >= spillRaw {
		t.Fatalf("combiner did not shrink spill: %d vs %d", spillComb, spillRaw)
	}
	for k, v := range resRaw {
		if resComb[k] != v {
			t.Fatalf("combiner changed answer for %s: %d vs %d", k, resComb[k], v)
		}
	}
}

func TestReducerNoReduceBeforeFinish(t *testing.T) {
	// The defining SM property: the reduce function must not run until
	// Finish (blocking behaviour).
	runSim(t, func(rt *core.Runtime) {
		calls := 0
		rt.FnRecords = func(n int64) { calls += int(n) }
		r := NewReducer(rt, rawOnly{}, ReducerConfig{Prefix: "r0", Buffer: 1 << 20, MergeFactor: 4})
		for seg := 0; seg < 10; seg++ {
			consume(r, sortedRun([]string{"a", "b", "c"}))
		}
		if calls != 0 {
			t.Fatal("reduce ran before finish without a combiner")
		}
		out := &mapOut{m: map[string]int64{}}
		r.Finish(out)
		if calls != 30 {
			t.Fatalf("fn records %d, want 30", calls)
		}
	})
}

func TestMapCollectorPartitionStability(t *testing.T) {
	// The same key must map to the same partition as in the hash
	// collector (both use family function 1), so platforms are
	// interchangeable reducer-side.
	runSim(t, func(rt *core.Runtime) {
		sm := NewMapCollector(rt, rawOnly{}, MapCollectorConfig{
			Prefix: "a", Partitions: 8, Buffer: 1 << 20, MergeFactor: 10,
		})
		hash := core.NewHashMapCollector(rt, rawOnly{}, 8, 1<<20, false)
		for i := 0; i < 500; i++ {
			k := []byte(fmt.Sprintf("key%04d", i))
			sm.Add(k, []byte("1"))
			hash.Add(k, []byte("1"))
		}
		smOut, _, _ := sm.Finish()
		hashOut, _, _ := hash.Finish()
		smParts, hashParts := smOut.Segs, hashOut.Segs
		partOf := func(parts [][][]byte) map[string]int {
			m := map[string]int{}
			for pi, segs := range parts {
				for _, seg := range segs {
					it := kvenc.NewIterator(seg)
					for {
						k, _, ok := it.Next()
						if !ok {
							break
						}
						m[string(k)] = pi
					}
					if err := it.Err(); err != nil {
						t.Fatalf("corrupt segment: %v", err)
					}
				}
			}
			return m
		}
		a, b := partOf(smParts), partOf(hashParts)
		for k, p := range a {
			if b[k] != p {
				t.Fatalf("key %s: SM partition %d, hash partition %d", k, p, b[k])
			}
		}
	})
}

func TestSnapshotApproximatesWithoutDisturbing(t *testing.T) {
	// §3.3(4): a snapshot merges everything received so far and applies
	// reduce to partial data; the final answer afterwards is unchanged.
	runSim(t, func(rt *core.Runtime) {
		r := NewReducer(rt, rawOnly{}, ReducerConfig{Prefix: "r0", Buffer: 2 << 10, MergeFactor: 3})
		want := map[string]int64{}
		feed := func(n int) {
			var keys []string
			for i := 0; i < n; i++ {
				k := fmt.Sprintf("key%02d", i%10)
				keys = append(keys, k)
				want[k]++
			}
			consume(r, sortedRun(keys))
			if r.MergeDue() {
				r.Merge()
			}
		}
		feed(100)
		snap := &mapOut{m: map[string]int64{}}
		r.Snapshot(snap)
		if len(snap.m) != 10 {
			t.Fatalf("snapshot keys %d", len(snap.m))
		}
		if snap.m["key00"] != 10 {
			t.Fatalf("snapshot partial count %d, want 10", snap.m["key00"])
		}
		feed(100) // more data after the snapshot
		out := &mapOut{m: map[string]int64{}}
		r.Finish(out)
		for k, w := range want {
			if out.m[k] != w {
				t.Fatalf("final %s=%d want %d (snapshot disturbed state)", k, out.m[k], w)
			}
		}
	})
}

// TestFinishSplitsIntoOneBuffer pins the map output's shape and bytes.
// The per-partition segments of one Finish are back-to-back ranges of a
// single allocation (the buffer the map output file adopts), each with
// its pair count, and — by SHA-256 over (partition, length, bytes) —
// byte-equal to the 40 separately grown slices the collector produced
// before the split wrote into one buffer (digests generated at commit
// 4c7735d), for the in-memory, combiner and external-sort (C·Km > B_m)
// cases.
func TestFinishSplitsIntoOneBuffer(t *testing.T) {
	for _, tc := range []struct {
		name            string
		q               mr.Query
		buffer, emitted int64
		spills          bool
		digest          string
	}{
		{"plain", rawOnly{}, 1 << 20, 6000, false, "f3c28170767e296705abb439792b2b592c6a261d858799d22c77d2b46dca2ca2"},
		{"combiner", sumQuery{}, 1 << 20, 1476, false, "70e1e2b690df01b16746d0468e79ce9579153fd385b0d15d7fa1ff35a13d0b31"},
		{"spilled", rawOnly{}, 8 << 10, 6000, true, "7d4a0d157026554f25a12c955618c7b06be5fafbed2f10a0ae42088106dc694b"},
		{"spilled-combiner", sumQuery{}, 8 << 10, 4977, true, "d589c96e0a05815ebe858843bb36cfe02ff278395f20a64117dea81e89c67ed2"},
	} {
		runSim(t, func(rt *core.Runtime) {
			c := NewMapCollector(rt, tc.q, MapCollectorConfig{
				Prefix: "m0", Partitions: 40, Buffer: tc.buffer, MergeFactor: 3,
			})
			rng := rand.New(rand.NewSource(16))
			for i := 0; i < 6000; i++ {
				c.Add([]byte(fmt.Sprintf("user%05d", rng.Intn(1500))), []byte(fmt.Sprintf("%d", 1+rng.Intn(9))))
			}
			out, mapped, emitted := c.Finish()
			if mapped != 6000 || emitted != tc.emitted {
				t.Fatalf("%s: mapped %d emitted %d, want 6000 and %d", tc.name, mapped, emitted, tc.emitted)
			}
			if spilled := rt.Store.Counters().WrittenBytes[storage.MapSpill] > 0; spilled != tc.spills {
				t.Fatalf("%s: spilled = %v", tc.name, spilled)
			}
			h := sha256.New()
			var hdr [8]byte
			off, pairs := 0, int64(0)
			for pi, segs := range out.Segs {
				if len(segs) != len(out.Recs[pi]) || len(segs) > 1 {
					t.Fatalf("%s: partition %d has %d segments and %d counts", tc.name, pi, len(segs), len(out.Recs[pi]))
				}
				for si, s := range segs {
					if len(s) == 0 || &s[0] != &out.Backing[off] || cap(s) != len(s) {
						t.Fatalf("%s: partition %d is not the next range of the backing buffer (offset %d)", tc.name, pi, off)
					}
					off += len(s)
					if n := int64(kvenc.Count(s)); n != out.Recs[pi][si] {
						t.Fatalf("%s: partition %d carries count %d, holds %d pairs", tc.name, pi, out.Recs[pi][si], n)
					}
					pairs += out.Recs[pi][si]
					binary.BigEndian.PutUint32(hdr[:4], uint32(pi))
					binary.BigEndian.PutUint32(hdr[4:], uint32(len(s)))
					h.Write(hdr[:])
					h.Write(s)
				}
			}
			if off != len(out.Backing) || pairs != emitted {
				t.Fatalf("%s: segments cover %d of %d backing bytes and %d of %d pairs", tc.name, off, len(out.Backing), pairs, emitted)
			}
			if got := fmt.Sprintf("%x", h.Sum(nil)); got != tc.digest {
				t.Errorf("%s: segment bytes changed: SHA-256 %s, want %s", tc.name, got, tc.digest)
			}
		})
	}
}

// TestHOPPushesEachFullBuffer: with Push set the collector never sorts
// externally — every full buffer leaves as one split shuffle unit, the
// rest at Finish, which returns no output of its own.
func TestHOPPushesEachFullBuffer(t *testing.T) {
	runSim(t, func(rt *core.Runtime) {
		var pushed, pairs int64
		c := NewMapCollector(rt, sumQuery{}, MapCollectorConfig{
			Prefix: "m0", Partitions: 4, Buffer: 4 << 10, MergeFactor: 3,
			Push: func(out core.MapParts) {
				pushed++
				for pi, segs := range out.Segs {
					for si, s := range segs {
						if !kvenc.IsSorted(s) || int64(kvenc.Count(s)) != out.Recs[pi][si] {
							t.Fatalf("push %d partition %d: unsorted or miscounted segment", pushed, pi)
						}
						pairs += out.Recs[pi][si]
					}
				}
			},
		})
		for i := 0; i < 3000; i++ {
			c.Add([]byte(fmt.Sprintf("key%04d", i%700)), []byte("1"))
		}
		out, mapped, emitted := c.Finish()
		if out.Segs != nil || mapped != 3000 || emitted != pairs || pushed < 3 {
			t.Fatalf("output %v, mapped %d, emitted %d (pushed pairs %d in %d pushes)", out.Segs, mapped, emitted, pairs, pushed)
		}
		if w := rt.Store.Counters().WrittenBytes[storage.MapSpill]; w != 0 {
			t.Fatalf("HOP collector spilled %d bytes to a merge tree", w)
		}
	})
}
