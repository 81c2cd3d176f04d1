package substrate_test

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/substrate"
)

// TestWallProcClock pins the wall Proc's clock contract: Now counts
// nanoseconds from the supplied start and never goes backward.
func TestWallProcClock(t *testing.T) {
	p := substrate.NewWallProc(time.Now())
	prev := p.Now()
	if prev < 0 {
		t.Fatalf("Now() = %d before start", prev)
	}
	for i := 0; i < 100; i++ {
		now := p.Now()
		if now < prev {
			t.Fatalf("clock went backward: %d after %d", now, prev)
		}
		prev = now
	}
}

// TestWallProcHoldIsNoOp pins that charged virtual durations are
// accounting, not sleep: holding an hour must return immediately.
func TestWallProcHoldIsNoOp(t *testing.T) {
	p := substrate.NewWallProc(time.Now())
	start := time.Now()
	p.Hold(time.Hour)
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("Hold(1h) slept %v; want immediate return", elapsed)
	}
}

// TestProcMethodSet pins the execution-context contract platform code
// is written against: a clock (Now, Hold) and one way onto the compute
// pool (Offload). A fourth method is a second way in — every backend
// must then implement it and every component may call it — so adding
// one has to show up here.
func TestProcMethodSet(t *testing.T) {
	typ := reflect.TypeOf((*substrate.Proc)(nil)).Elem()
	var got []string
	for i := 0; i < typ.NumMethod(); i++ {
		got = append(got, typ.Method(i).Name)
	}
	if want := []string{"Hold", "Now", "Offload"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("substrate.Proc methods = %v, want exactly %v", got, want)
	}
}

// TestWallProcOffloadRunsInline pins per-task serial compute on the real
// backend: fn finishes before charge starts, on the calling goroutine.
func TestWallProcOffloadRunsInline(t *testing.T) {
	var order []string
	substrate.NewWallProc(time.Now()).Offload(
		func() { order = append(order, "fn") },
		func() { order = append(order, "charge") })
	if !reflect.DeepEqual(order, []string{"fn", "charge"}) {
		t.Fatalf("Offload ran %v, want fn then charge", order)
	}
}

// TestWallTimerAccumulates pins the accumulator arithmetic: each Use
// adds tokens·d to the busy integral, and Use never blocks the caller.
func TestWallTimerAccumulates(t *testing.T) {
	tm := substrate.NewWallTimer()
	if got := tm.BusyIntegral(); got != 0 {
		t.Fatalf("fresh timer BusyIntegral = %d, want 0", got)
	}
	p := substrate.NewWallProc(time.Now())
	tm.Use(p, 1, 10*time.Millisecond)
	tm.Use(p, 3, 2*time.Millisecond)
	want := int64(10*time.Millisecond) + 3*int64(2*time.Millisecond)
	if got := tm.BusyIntegral(); got != want {
		t.Fatalf("BusyIntegral = %d, want %d", got, want)
	}
}

// TestWallTimerConcurrentUse pins atomicity: tasks on different
// goroutines share one node's devices, so concurrent charges must not
// lose updates. Run with -race.
func TestWallTimerConcurrentUse(t *testing.T) {
	tm := substrate.NewWallTimer()
	const goroutines, charges = 8, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := substrate.NewWallProc(time.Now())
			for i := 0; i < charges; i++ {
				tm.Use(p, 2, time.Microsecond)
			}
		}()
	}
	wg.Wait()
	want := int64(goroutines) * charges * 2 * int64(time.Microsecond)
	if got := tm.BusyIntegral(); got != want {
		t.Fatalf("BusyIntegral = %d, want %d (lost updates)", got, want)
	}
}

// TestTimerParityAcrossSubstrates pins the conformance property the
// metrics rely on: the same sequence of charges yields the same busy
// integral whether the Timer is a wall accumulator or a DES resource —
// utilization numbers survive the move between backends.
func TestTimerParityAcrossSubstrates(t *testing.T) {
	charges := []struct {
		tokens int64
		d      time.Duration
	}{
		{1, 7 * time.Millisecond},
		{1, 250 * time.Microsecond},
		{1, 3 * time.Second},
	}

	wall := substrate.NewWallTimer()
	wp := substrate.NewWallProc(time.Now())
	for _, c := range charges {
		wall.Use(wp, c.tokens, c.d)
	}

	k := sim.NewKernel()
	res := sim.NewResource(k, "disk", 1)
	k.Spawn("charger", func(p *sim.Proc) {
		var st substrate.Timer = res // charge through the interface
		for _, c := range charges {
			st.Use(p, c.tokens, c.d)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}

	if wall.BusyIntegral() != res.BusyIntegral() {
		t.Fatalf("busy integrals diverge: wall %d, sim %d",
			wall.BusyIntegral(), res.BusyIntegral())
	}
}
