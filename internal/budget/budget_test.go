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

// TestSoftLimitFollowsReservations: base + fold + reservations + half
// the reservations as headroom, cut at the budget; no limit while no job
// runs; reported only when it changes.
func TestSoftLimitFollowsReservations(t *testing.T) {
	b := New(1000)
	var got []int64
	b.SoftLimit(50, func(n int64) { got = append(got, n) })
	b.Hold(7, 0)
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
	b.SoftLimit(50, func(n int64) { got = append(got, n) })
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
// pass what it covers, and after a step of folded bytes it counts the
// fold's bytes again.
func TestSoftLimitCoversIngest(t *testing.T) {
	b := New(800) // step 100
	var got []int64
	b.SoftLimit(50, func(n int64) { got = append(got, n) })
	b.Take(10)     // no job: no limit to follow
	b.Reserve(200) // 50 + 300 + 100
	b.Take(80)     // 90 in flight: covered
	b.Take(20)     // 110: 50 + 300 + 200
	b.Hold(40, 0)
	b.Give(110)
	b.Take(1) // a step folded: 40 + 50 + 300 + 100
	b.Release(200)
	if want := []int64{450, 550, 490, NoLimit}; !slices.Equal(got, want) {
		t.Fatalf("reported %v, want %v", got, want)
	}
}

// TestFoldSharesTheBudget: Hold never refuses, even past the budget; Take
// and Reserve see the fold's table beside the in-flight bytes, but not
// its early-output log; and the soft limit counts both exactly once a
// step of them has moved.
func TestFoldSharesTheBudget(t *testing.T) {
	b := New(800) // step 100
	var got []int64
	b.SoftLimit(50, func(n int64) { got = append(got, n) })
	b.Hold(700, 0)
	if !b.Take(100) || b.Take(1) {
		t.Fatal("in-flight bytes not bounded by the budget less the fold")
	}
	b.Give(100)
	b.Hold(300, 0) // the fold passes the budget: held, not refused
	if s := b.Snapshot(); s.Fold != 1000 || s.Inflight != 0 {
		t.Fatalf("snapshot %+v", s)
	}
	if b.Take(1) {
		t.Fatal("ingest admitted beside a fold past the budget")
	}
	// The first job starts whatever ingest holds; a second must fit
	// beside the fold.
	if !b.Reserve(100) || b.Reserve(1) {
		t.Fatal("a second job was admitted beside a full fold")
	}
	b.Hold(-700, 0) // the scavenger freed room: 50 + 300 + 100 + 50
	if !b.Reserve(400) || b.Reserve(1) {
		t.Fatal("reservations do not see the fold's freed bytes")
	}
	b.Hold(0, 99) // under a step: not yet followed
	b.Hold(0, 1)  // a step: 50 + 300 + 100 + 500 + min(250, 300)
	b.Release(400)
	b.Release(100)
	if !b.Take(500) || b.Take(1) {
		t.Fatal("the early-output log took ingest's room")
	}
	b.Give(500)
	b.Hold(-300, -100)
	if want := []int64{50 + 1000 + 100 + 50, 50 + 300 + 100 + 50, 50 + 300 + 500 + 250, 50 + 300 + 100 + 500 + 250, 50 + 300 + 100 + 100 + 50, NoLimit}; !slices.Equal(got, want) {
		t.Fatalf("reported %v, want %v", got, want)
	}
	if s := b.Snapshot(); s != (Snapshot{Budget: 800}) {
		t.Fatalf("idle budget %+v", s)
	}
}

// TestIngestShareFitsTheFoldsArena: under a budget larger than the
// fold's table can address, ingest takes no more than maxIngest, while
// jobs keep the whole of their share.
func TestIngestShareFitsTheFoldsArena(t *testing.T) {
	b := New(4 << 30)
	b.Hold(maxIngest-10, 0)
	if !b.Take(10) || b.Take(1) {
		t.Fatal("ingest passed maxIngest")
	}
	if !b.Reserve(1<<30) || !b.Reserve(1<<30) {
		t.Fatal("jobs lost their share to ingest's cap")
	}
}
