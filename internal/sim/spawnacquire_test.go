package sim

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"
)

// TestSpawnAcquireFIFOWithAcquire interleaves queued spawns with
// ordinary Acquire waiters on one resource: grants follow arrival
// order whichever way a request arrived, and a two-unit request blocks
// the one-unit spawn behind it (no overtaking).
func TestSpawnAcquireFIFOWithAcquire(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "slot", 2)
	var grants []string
	use := func(p *Proc, n int64) {
		grants = append(grants, fmt.Sprintf("%v %s", time.Duration(p.Now()), p.Name()))
		p.Hold(time.Second)
		p.Release(r, n)
	}
	k.SpawnAcquire("holder", r, 2, func(p *Proc) { use(p, 2) })
	k.Spawn("driver", func(p *Proc) {
		k.Spawn("a", func(p *Proc) { p.Acquire(r, 1); use(p, 1) })
		p.Hold(time.Nanosecond) // a queues first
		k.SpawnAcquire("s", r, 1, func(p *Proc) { use(p, 1) })
		k.Spawn("b", func(p *Proc) { p.Acquire(r, 2); use(p, 2) })
		p.Hold(time.Nanosecond)
		k.SpawnAcquire("t", r, 1, func(p *Proc) { use(p, 1) })
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"0s holder", "1s a", "1s s", "2s b", "3s t"}
	if !slices.Equal(grants, want) {
		t.Fatalf("grants %q, want %q", grants, want)
	}
}

// spawnAcquireTrace runs a fixed set of tasks on a two-unit resource —
// some spawned before Run, two from a running process, one Acquire of
// both units between them — and returns the (time, name, event) trace.
// queued selects SpawnAcquire; otherwise each task is a Spawn whose
// first statement is the Acquire.
func spawnAcquireTrace(t *testing.T, queued bool) []string {
	t.Helper()
	k := NewKernel()
	r := NewResource(k, "slot", 2)
	disk := NewResource(k, "disk", 1)
	var trace []string
	log := func(p *Proc, ev string) {
		trace = append(trace, fmt.Sprintf("%v %s %s", time.Duration(p.Now()), p.Name(), ev))
	}
	task := func(i int) func(p *Proc) {
		return func(p *Proc) {
			log(p, "start")
			p.Hold(time.Duration(i%3+1) * time.Second)
			disk.Use(p, 1, 500*time.Millisecond)
			log(p, "end")
			p.Release(r, 1)
		}
	}
	spawn := func(name string, fn func(p *Proc)) {
		if queued {
			k.SpawnAcquire(name, r, 1, fn)
			return
		}
		k.Spawn(name, func(p *Proc) { p.Acquire(r, 1); fn(p) })
	}
	for i := 0; i < 5; i++ {
		spawn(fmt.Sprintf("m%d", i), task(i))
	}
	k.Spawn("both", func(p *Proc) {
		p.Hold(500 * time.Millisecond)
		p.Acquire(r, 2)
		log(p, "start")
		p.Hold(time.Second)
		p.Release(r, 2)
	})
	k.Spawn("late", func(p *Proc) {
		p.Hold(time.Second)
		spawn("x", task(5))
		spawn("y", task(6))
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	return trace
}

// TestSpawnAcquireTracePinned: SpawnAcquire is Spawn plus a first
// Acquire, event for event — the two shapes give one trace, pinned.
func TestSpawnAcquireTracePinned(t *testing.T) {
	want := []string{
		"0s m0 start", "0s m1 start",
		"1.5s m0 end", "1.5s m2 start",
		"2.5s m1 end", "2.5s m3 start",
		"4s m3 end", "4s m4 start",
		"5s m2 end",
		"6.5s m4 end", "6.5s both start",
		"7.5s x start", "7.5s y start",
		"9s y end",
		"11s x end",
	}
	spawned, queued := spawnAcquireTrace(t, false), spawnAcquireTrace(t, true)
	if !slices.Equal(spawned, want) {
		t.Fatalf("Spawn+Acquire trace\n got: %q\nwant: %q", spawned, want)
	}
	if !slices.Equal(queued, spawned) {
		t.Fatalf("SpawnAcquire trace\n got: %q\nwant: %q", queued, spawned)
	}
}

// TestDeadlockNamesQueuedSpawn: a process still queued in SpawnAcquire
// has never run, and the deadlock report names it all the same.
func TestDeadlockNamesQueuedSpawn(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "n0.mslots", 1)
	c := NewCond(k, "never")
	k.SpawnAcquire("map000000", r, 1, func(p *Proc) { p.Wait(c) })
	k.SpawnAcquire("map000001", r, 1, func(p *Proc) { t.Error("queued process ran") })
	err := k.Run()
	const want = "sim: deadlock at t=0s with 2 blocked procs: [map000000(wait never) map000001(spawn on n0.mslots)]"
	if err == nil || err.Error() != want {
		t.Fatalf("deadlock error\n got: %v\nwant: %s", err, want)
	}
}

// TestShutdownWithQueuedSpawns: a kernel that stops with spawns still
// queued (here behind a holder that panics) leaves no coroutine, and
// none of the queued bodies runs — the one the holder's unwinding
// Release grants is scheduled but never resumed.
func TestShutdownWithQueuedSpawns(t *testing.T) {
	base := runtime.NumGoroutine()
	k := NewKernel()
	r := NewResource(k, "slot", 1)
	k.SpawnAcquire("holder", r, 1, func(p *Proc) {
		defer p.Release(r, 1)
		p.Hold(time.Second)
		panic("bad chunk")
	})
	for i := 0; i < 100; i++ {
		k.SpawnAcquire(fmt.Sprintf("q%d", i), r, 1, func(p *Proc) { t.Errorf("%s ran", p.Name()) })
	}
	if err := k.Run(); err == nil || err.Error() != "sim: proc holder panicked: bad chunk" {
		t.Fatalf("Run error %v", err)
	}
	waitGoroutines(t, base)
}

// TestSpawnAcquireGoroutinesBoundedByCapacity: 10,000 processes on a
// capacity-4 resource never hold more than capacity coroutines (plus
// one a Release has just granted) at once. Spawned with Spawn, all
// 10,000 would park at once, each on a goroutine stack of its own.
func TestSpawnAcquireGoroutinesBoundedByCapacity(t *testing.T) {
	const procs, capacity = 10000, 4
	base := runtime.NumGoroutine()
	k := NewKernel()
	r := NewResource(k, "slot", capacity)
	peak, ran := 0, 0
	for i := 0; i < procs; i++ {
		k.SpawnAcquire("w", r, 1, func(p *Proc) {
			peak = max(peak, runtime.NumGoroutine()-base)
			p.Hold(time.Nanosecond)
			ran++
			p.Release(r, 1)
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if ran != procs {
		t.Fatalf("%d of %d processes ran", ran, procs)
	}
	if peak > capacity+2 {
		t.Fatalf("peak of %d goroutines above the test's, want ≤ %d", peak, capacity+2)
	}
	waitGoroutines(t, base)
}
