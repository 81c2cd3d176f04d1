package sortmerge

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math/rand"
	"testing"
	"time"

	"repro/internal/bytestore"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/kvenc"
	"repro/internal/mr"
	"repro/internal/sim"
	"repro/internal/storage"
)

// echoQuery's reduce output is as large as its input (like
// sessionization's), so a final reduce spans many hand-off batches:
// every value comes back out, numbered within its group.
type echoQuery struct{}

func (echoQuery) Name() string                         { return "echo" }
func (echoQuery) Map(r []byte, emit func(k, v []byte)) { emit(r, r) }
func (echoQuery) Reduce(k []byte, vals kvenc.ValueIter, out mr.OutputWriter) {
	for i := 0; ; i++ {
		v, ok := vals.Next()
		if !ok {
			return
		}
		out.Emit(k, append([]byte(fmt.Sprintf("%03d:", i)), v...))
	}
}

// echoCombine adds an identity combine function: spills are merged
// through the combiner path and count as function records.
type echoCombine struct{ echoQuery }

func (echoCombine) Combine(_ []byte, vals kvenc.ValueIter, emit func(v []byte)) {
	for {
		v, ok := vals.Next()
		if !ok {
			return
		}
		emit(v)
	}
}

// effectTrace hashes, in order, every effect a reducer has on its
// surroundings: output records, CPU charges and function-record counts.
type effectTrace struct {
	h         hash.Hash
	emitted   int64
	fnRecords int64
}

func (tr *effectTrace) event(tag byte, n int64, parts ...[]byte) {
	var hdr [9]byte
	hdr[0] = tag
	binary.BigEndian.PutUint64(hdr[1:], uint64(n))
	tr.h.Write(hdr[:])
	for _, p := range parts {
		binary.BigEndian.PutUint64(hdr[1:], uint64(len(p)))
		tr.h.Write(hdr[1:])
		tr.h.Write(p)
	}
}

func (tr *effectTrace) Emit(k, v []byte) {
	tr.emitted++
	tr.event('E', 0, k, v)
}

// runTraced runs fn on a simulated process, over a compute pool of the
// given size, whose runtime records every charge and function-record
// count into the returned trace. The model is scaled so a final reduce
// flushes its charge batcher many times.
func runTraced(t *testing.T, workers int, fn func(rt *core.Runtime, tr *effectTrace)) *effectTrace {
	t.Helper()
	tr := &effectTrace{h: sha256.New()}
	m := cost.Default(1.0 / 64)
	k := sim.NewKernel()
	k.SetWorkers(workers)
	st := storage.NewStore(k, 0, m)
	k.Spawn("task", func(p *sim.Proc) {
		rt := core.NopRuntime(p, st, m)
		rt.ChargeCPU = func(d time.Duration) { tr.event('C', int64(d)) }
		rt.FnRecords = func(n int64) { tr.fnRecords += n; tr.event('F', n) }
		fn(rt, tr)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	return tr
}

// feedEcho drives segs sorted segments of 300 pairs over 2,000 keys
// into r, merging in the background as the engine would.
func feedEcho(r *Reducer, rng *rand.Rand, from, segs int) {
	for seg := from; seg < from+segs; seg++ {
		var raw []byte
		for i := 0; i < 300; i++ {
			key := fmt.Sprintf("user%05d", rng.Intn(2000))
			raw = kvenc.AppendPair(raw, []byte(key), []byte(fmt.Sprintf("seg%02d-%03d-%s", seg, i, key)))
		}
		run, n := kvenc.SortStream(raw)
		r.Consume(run, int64(n))
		if r.MergeDue() {
			r.Merge()
		}
	}
}

// TestReduceBatchesPinned holds the final merge + reduce to what it did
// while it still ran on the process, one group at a time: the SHA-256
// over every output record, CPU charge and function-record count, in
// order, and the totals, for the in-memory, combiner, spilled and
// HOP-snapshot cases (constants generated at commit 2964532), with the
// compute on the kernel's thread alone and on a pool. Each case's output (≈ 0.7 MB) spans
// some twenty hand-off batches.
func TestReduceBatchesPinned(t *testing.T) {
	for _, tc := range []struct {
		name               string
		q                  mr.Query
		buffer             int64
		snapshot           bool
		emitted, fnRecords int64
		digest             string
	}{
		{"plain", echoQuery{}, 8 << 20, false, 18000, 18000, "203056ad5ac84ae1a0343c793cae8c5dfc359f0bc7b7c2dcccb2cf9a382bf6af"},
		{"combiner", echoCombine{}, 64 << 10, false, 18000, 36000, "2b26cb978a739aa223472f8c4ebf005b3573fc483756f2b08523bb1cee77f633"},
		{"spilled", echoQuery{}, 64 << 10, false, 18000, 18000, "3fa9b0fa29cad346e9803ad2ce0288a6a17ac008df2388466445b447fbf3d4d9"},
		{"hop-snapshot", echoQuery{}, 64 << 10, true, 27000, 18000, "a19e59e62c0945c089a7a5be6842fd2a23f40df83a5d8083e12394d953aaa79c"},
	} {
		for _, workers := range []int{1, 4} {
			var spilled bool
			tr := runTraced(t, workers, func(rt *core.Runtime, tr *effectTrace) {
				r := NewReducer(rt, tc.q, ReducerConfig{Prefix: "r0", Buffer: tc.buffer, MergeFactor: 3})
				rng := rand.New(rand.NewSource(18))
				feedEcho(r, rng, 0, 30)
				if tc.snapshot {
					r.Snapshot(tr)
					tr.event('S', tr.emitted)
				}
				feedEcho(r, rng, 30, 30)
				r.Finish(tr)
				spilled = rt.Store.Counters().WrittenBytes[storage.ReduceSpill] > 0
			})
			if want := tc.buffer < 1<<20; spilled != want {
				t.Fatalf("%s: test setup: spilled = %v", tc.name, spilled)
			}
			got := fmt.Sprintf("%x", tr.h.Sum(nil))
			if tr.emitted != tc.emitted || tr.fnRecords != tc.fnRecords || got != tc.digest {
				t.Errorf("%s, %d workers: emitted %d, function records %d, SHA-256 %s; want %d, %d, %s",
					tc.name, workers, tr.emitted, tr.fnRecords, got, tc.emitted, tc.fnRecords, tc.digest)
			}
		}
	}
}

// TestCorruptFinalRunFailsTheAttempt: damage in a run of the final
// merge still panics on the process, naming the run — after the groups
// decoded before the damage took effect, as when Reduce ran there.
func TestCorruptFinalRunFailsTheAttempt(t *testing.T) {
	for _, workers := range []int{1, 4} {
		k := sim.NewKernel()
		k.SetWorkers(workers)
		st := storage.NewStore(k, 0, cost.Default(1))
		out := &mapOut{m: map[string]int64{}}
		k.Spawn("task", func(p *sim.Proc) {
			r := NewReducer(core.NopRuntime(p, st, cost.Default(1)), rawOnly{}, ReducerConfig{Prefix: "r7", Buffer: 1 << 20, MergeFactor: 3})
			consume(r, sortedRun([]string{"a", "b", "c"}))
			r.Consume(append(sortedRun([]string{"a", "b"}), 0xFF, 0xFE, 0x01), 2)
			r.Finish(out)
		})
		err := k.Run()
		const want = "sim: proc task panicked: sortmerge: corrupt final run in r7: kvenc: corrupt stream"
		if err == nil || err.Error() != want {
			t.Fatalf("%d workers: run ended with %v, want %q", workers, err, want)
		}
		if out.m["a"] != 2 || out.m["b"] != 2 || out.m["c"] != 1 {
			t.Fatalf("%d workers: groups before the damage reduced to %v", workers, out.m)
		}
	}
}

// TestAbortedReduceReturnsItsBuffers: an attempt that dies inside a
// replayed charge (a node kill surfaces as a panic out of ChargeCPU)
// while the next batch is being produced hands both batch buffers back
// to the pool — after the producer has finished with its own.
func TestAbortedReduceReturnsItsBuffers(t *testing.T) {
	// The pool is last-in first-out: the two buffers parked here are the
	// two the reducer draws, and must be the two on top again afterwards.
	a, b := bytestore.Get(2*reduceBatchBytes), bytestore.Get(2*reduceBatchBytes)
	parked := map[*byte]bool{&a[:1][0]: true, &b[:1][0]: true}
	bytestore.Put(a)
	bytestore.Put(b)
	type abort struct{}
	for _, workers := range []int{1, 4} {
		charges, batches := 0, 0
		k := sim.NewKernel()
		k.SetWorkers(workers)
		m := cost.Default(1.0 / 64)
		st := storage.NewStore(k, 0, m)
		k.Spawn("task", func(p *sim.Proc) {
			defer func() {
				if r := recover(); r != (abort{}) {
					panic(r)
				}
			}()
			rt := core.NopRuntime(p, st, m)
			rt.ChargeCPU = func(time.Duration) {
				p.Hold(time.Millisecond)
				if charges++; charges == 12 {
					panic(abort{})
				}
			}
			r := NewReducer(rt, echoQuery{}, ReducerConfig{Prefix: "r0", Buffer: 8 << 20, MergeFactor: 3})
			feedEcho(r, rand.New(rand.NewSource(18)), 0, 60)
			r.Finish(mr.FuncOutput(func(_, v []byte) {
				if string(v[:4]) == "000:" { // first output of a group
					batches++
				}
			}))
			t.Errorf("%d workers: the reduce outlived its abort", workers)
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		if batches == 0 {
			t.Fatalf("%d workers: test setup: aborted before any batch was replayed", workers)
		}
		x, y := bytestore.Get(2*reduceBatchBytes), bytestore.Get(2*reduceBatchBytes)
		if !parked[&x[:1][0]] || !parked[&y[:1][0]] || &x[:1][0] == &y[:1][0] {
			t.Fatalf("%d workers: the aborted reduce kept a batch buffer", workers)
		}
		bytestore.Put(x)
		bytestore.Put(y)
	}
}
