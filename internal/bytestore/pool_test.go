package bytestore

import (
	"fmt"
	"testing"

	"repro/internal/hashfam"
	"repro/internal/kvenc"
)

func TestPoolGetPut(t *testing.T) {
	b := Get(100)
	if len(b) != 0 {
		t.Fatalf("Get returned len %d, want 0", len(b))
	}
	if cap(b) < 100 {
		t.Fatalf("Get(100) capacity %d < 100", cap(b))
	}
	b = append(b, []byte("hello")...)
	Put(b)
	b2 := Get(100)
	if len(b2) != 0 {
		t.Fatalf("recycled buffer has len %d, want 0", len(b2))
	}

	// Oversized requests fall through to plain allocation.
	huge := Get(1 << 27)
	if cap(huge) < 1<<27 {
		t.Fatalf("oversized Get capacity %d", cap(huge))
	}
	Put(huge) // capped at the largest class, must not panic

	Put(nil)             // no-op
	Put(make([]byte, 8)) // below smallest class: dropped
	Put(make([]byte, 0)) // no-op
}

func TestPoolClassBounds(t *testing.T) {
	for _, n := range []int{1, 1023, 1024, 1025, 4096, 1 << 20, 1 << 26} {
		b := Get(n)
		if cap(b) < n {
			t.Fatalf("Get(%d) capacity %d too small", n, cap(b))
		}
		Put(b)
	}
	// classOf must never hand a buffer to a class larger than its
	// capacity: a Get after Put must still satisfy the class size.
	small := make([]byte, 0, 1500) // covers the 1 KiB class only
	Put(small)
	got := Get(2048)
	if cap(got) < 2048 {
		t.Fatalf("Get(2048) returned an undersized recycled buffer (cap %d)", cap(got))
	}
}

func TestPoolSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include race-detector instrumentation")
	}
	// Warm one buffer per size used.
	Put(Get(4096))
	allocs := testing.AllocsPerRun(100, func() {
		b := Get(4096)
		b = append(b, 1, 2, 3)
		Put(b)
	})
	if allocs != 0 {
		t.Fatalf("pool Get/Put steady state allocated %.1f times, want 0", allocs)
	}
}

// TestPooledSpillEncodeSteadyState exercises the spill-encode shape
// the collectors use — encode pairs into a pooled buffer, sort it
// into a second pooled buffer, recycle both — and requires the steady
// state to be allocation-free end to end.
func TestPooledSpillEncodeSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include race-detector instrumentation")
	}
	key, val := []byte("user0001"), []byte("click-record-payload")
	const recs = 1024

	encode := func() ([]byte, []byte) {
		buf := Get(recs * 32)
		for i := 0; i < recs; i++ {
			buf = kvenc.AppendPair(buf, key, val)
		}
		run, _ := kvenc.SortStreamTo(Get(len(buf)), buf)
		return buf, run
	}
	// Warm pool classes and the sort scratch.
	b, r := encode()
	Put(b)
	Put(r)

	allocs := testing.AllocsPerRun(20, func() {
		buf, run := encode()
		Put(buf)
		Put(run)
	})
	if allocs != 0 {
		t.Fatalf("pooled spill encode allocated %.1f times per spill, want 0", allocs)
	}
	// And the result is still a correct run.
	b, r = encode()
	if !kvenc.IsSorted(r) || kvenc.Count(r) != recs {
		t.Fatalf("pooled spill encode produced a bad run")
	}
	Put(b)
	Put(r)
}

// TestTableReleaseReusesArena pins the life cycle every hash reducer
// runs per bucket and per flush: NewTable, upserts, Release. The arena
// is drawn from the pool and handed back, so the next table starts in
// the same buffer and a steady cycle allocates only the table's bucket
// array and entry list.
func TestTableReleaseReusesArena(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include race-detector instrumentation")
	}
	h := hashfam.NewFamily(1).Fn(3)
	keys := make([][]byte, 16)
	for i := range keys {
		keys[i] = fmt.Appendf(nil, "user%04d", i)
	}
	var arena *byte
	cycle := func() {
		tb := NewTable(h, 4<<10)
		for _, k := range keys {
			if _, _, _, ok := tb.UpsertState(k, 8, 16); !ok {
				t.Fatal("a 4 KiB table refused 16 small states")
			}
		}
		arena = &tb.a.buf[0]
		tb.Release()
	}
	cycle()
	first := arena
	allocs := testing.AllocsPerRun(100, cycle)
	if arena != first {
		t.Error("a table after Release started in a fresh arena")
	}
	// The table, its 64 buckets, and four steps of the entry list; a
	// fresh arena would be a seventh.
	if allocs != 6 {
		t.Errorf("NewTable + 16 upserts + Release allocated %.0f objects, want 6", allocs)
	}
}
