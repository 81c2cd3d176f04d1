package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cost"
	"repro/internal/sim"
	"repro/internal/storage"
)

// TestMRHashWriteAmplification guards the hybrid-hash I/O guarantee
// the paper's Table 3 rests on: MR-hash writes each spilled tuple to
// its bucket once and reads it back once — the reduce spill stays
// close to the input volume (paper: 256GB spill for 245GB shuffled),
// even at a 14:1 data:memory ratio with Zipf keys. A regression here
// (bad bucket sizing, runaway recursive partitioning) shows up as
// write amplification.
func TestMRHashWriteAmplification(t *testing.T) {
	// Mimic one full-scale reducer: 6.8GB logical at 1/512 → 13.3MB
	// phys input, 977KB budget, zipf keys.
	k := sim.NewKernel()
	st := storage.NewStore(k, 0, cost.Default(1.0/512), nil)
	k.Spawn("r", func(p *sim.Proc) {
		rt := NopRuntime(p, st, cost.Default(1.0/512))
		q := &countQuery{}
		r := NewMRHashReducer(rt, q, MRHashConfig{
			Prefix: "t", MemBudget: 977 << 10, Page: 2 << 10,
			ReadSegment:   64 << 10,
			ExpectedBytes: 13 << 20,
		})
		rng := rand.New(rand.NewSource(1))
		z := rand.NewZipf(rng, 1.2, 32, 150_000/40)
		val := make([]byte, 79)
		var in int64
		for in < 13<<20 {
			key := []byte(fmt.Sprintf("u%07d", z.Uint64()))
			r.Consume(key, val)
			in += int64(len(key) + len(val))
		}
		out := newCollect(t)
		r.Finish(out)
		c := st.Counters()
		wAmp := float64(c.WrittenBytes[storage.ReduceSpill]) / float64(in)
		rAmp := float64(c.ReadBytes[storage.ReduceSpill]) / float64(in)
		t.Logf("input=%dMB written %.2fx read %.2fx buckets=%d",
			in>>20, wAmp, rAmp, len(r.buckets.bufs))
		if wAmp > 1.15 {
			t.Errorf("write amplification %.2fx (want ≤ ~1x: each tuple spilled once)", wAmp)
		}
		if rAmp > 1.15 {
			t.Errorf("read amplification %.2fx", rAmp)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}
