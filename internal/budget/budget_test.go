package budget

import (
	"slices"
	"testing"
)

func TestTakeAndReserveShareOneBudget(t *testing.T) {
	b := New(100)
	if !b.Take(60) || b.Take(50) {
		t.Fatal("in-flight bytes not bounded by the budget")
	}
	// The first job starts whatever ingest holds; later ones must fit.
	if !b.Reserve(70) {
		t.Fatal("a job with none running was refused")
	}
	if b.Take(1) || b.Reserve(1) {
		t.Fatal("admitted past the budget")
	}
	b.Give(60)
	if !b.Reserve(5) || b.Reserve(1) {
		t.Fatal("reservations not bounded by the jobs' share")
	}
	if !b.Take(25) || b.Take(1) {
		t.Fatal("ingest not bounded by what the jobs left")
	}
	b.Give(25)
	b.Release(70)
	b.Release(5)
	// A job above the whole budget runs alone.
	if !b.Reserve(500) || b.Reserve(1) {
		t.Fatal("an over-budget job did not run alone")
	}
	b.Release(500)
	if s := b.Snapshot(); s != (Snapshot{Budget: 100}) {
		t.Fatalf("idle budget %+v", s)
	}
}

// TestIngestKeepsAQuarter: however much the running jobs reserve, even
// one alone above the whole budget, ingest can still take a quarter of it.
func TestIngestKeepsAQuarter(t *testing.T) {
	b := New(100)
	b.Reserve(500)
	if !b.Take(25) || b.Take(1) {
		t.Fatal("an over-budget job took ingest's quarter")
	}
	b.Give(25)
	b.Release(500)
	b.Reserve(75)
	if b.Reserve(1) {
		t.Fatal("jobs reserved past their share")
	}
	if !b.Take(25) || b.Take(1) {
		t.Fatal("ingest's quarter not kept beside a full share")
	}
}

// TestSoftLimitFollowsReservations: base + held + reservations + half
// the reservations as headroom, cut at the budget; no limit while no job
// runs; reported only when it changes.
func TestSoftLimitFollowsReservations(t *testing.T) {
	b := New(1000)
	var got []int64
	b.SoftLimit(50, func() int64 { return 7 }, func(n int64) { got = append(got, n) })
	b.Reserve(200) // 50 + 7 + 300
	b.Reserve(400) // 50 + 7 + min(900, 1000)
	if s := b.Snapshot(); s.SoftLimit != 957 || s.Reserved != 600 {
		t.Fatalf("snapshot %+v", s)
	}
	b.Release(400)
	b.Reserve(550) // 50 + 7 + min(1125, 1000)
	b.Release(200)
	b.Release(550)
	if want := []int64{357, 957, 357, 1057, 882, NoLimit}; !slices.Equal(got, want) {
		t.Fatalf("reported %v, want %v", got, want)
	}
	b.Reserve(5000) // alone, above the budget: no headroom
	if s := b.Snapshot(); s.SoftLimit != 5057 {
		t.Fatalf("over-budget job: %+v", s)
	}
}

// TestNoSoftLimitBesideAnUnpredictedJob: a job without a prediction
// (Reserve(0)) has a heap the budget does not know, so while it runs
// there is no soft limit, even beside a predicted one.
func TestNoSoftLimitBesideAnUnpredictedJob(t *testing.T) {
	b := New(1000)
	var got []int64
	b.SoftLimit(50, func() int64 { return 0 }, func(n int64) { got = append(got, n) })
	b.Reserve(200)
	if !b.Reserve(0) {
		t.Fatal("a job without a prediction was refused")
	}
	if s := b.Snapshot(); s.SoftLimit != 0 || s.Reserved != 200 {
		t.Fatalf("beside an unpredicted job: %+v", s)
	}
	b.Release(0)
	b.Release(200)
	if want := []int64{350, NoLimit, 350, NoLimit}; !slices.Equal(got, want) {
		t.Fatalf("reported %v, want %v", got, want)
	}
}

// TestSoftLimitCoversIngest: ingest's in-flight bytes, rounded up to an
// eighth of the budget, are inside the limit; it rises as soon as they
// pass what it covers, and after a step of folded bytes it reads the
// fold state again.
func TestSoftLimitCoversIngest(t *testing.T) {
	b := New(800) // step 100
	held := int64(0)
	var got []int64
	b.SoftLimit(50, func() int64 { return held }, func(n int64) { got = append(got, n) })
	b.Take(10)     // no job: no limit to follow
	b.Reserve(200) // 50 + 300 + 100
	b.Take(80)     // 90 in flight: covered
	b.Take(20)     // 110: 50 + 300 + 200
	held = 40
	b.Give(110)
	b.Take(1) // a step folded: 40 + 50 + 300 + 100
	b.Release(200)
	if want := []int64{450, 550, 490, NoLimit}; !slices.Equal(got, want) {
		t.Fatalf("reported %v, want %v", got, want)
	}
}
