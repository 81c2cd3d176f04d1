package sim

import (
	"runtime"
	"testing"
	"time"
)

// The event loop must not allocate per event: a regression here does
// not break an answer, it puts a third of every simulated job's wall
// time back. Each case measures, from inside a running process, one
// operation that parks and is resumed — so the count covers the
// kernel's side of the switch (heap pop/push, wait queues, park
// reasons) as well as the process's.
func TestEventLoopAllocs(t *testing.T) {
	cases := []struct {
		name string
		// partner runs as a daemon beside the measured process.
		partner func(p *Proc, r *Resource, c *Cond)
		op      func(p *Proc, r *Resource, c *Cond)
	}{
		{name: "Hold", op: func(p *Proc, _ *Resource, _ *Cond) { p.Hold(time.Nanosecond) }},
		{name: "UseUncontended", op: func(p *Proc, r *Resource, _ *Cond) { r.Use(p, 1, time.Nanosecond) }},
		{
			// The partner's hold is longer than the measured process's
			// turnaround, so every Acquire queues behind it.
			name: "AcquireReleaseContended",
			partner: func(p *Proc, r *Resource, _ *Cond) {
				for {
					r.Use(p, 1, 3*time.Nanosecond)
				}
			},
			op: func(p *Proc, r *Resource, _ *Cond) { r.Use(p, 1, time.Nanosecond) },
		},
		{
			name: "WaitBroadcast",
			partner: func(p *Proc, _ *Resource, c *Cond) {
				for {
					p.Hold(time.Nanosecond)
					c.Broadcast()
				}
			},
			op: func(p *Proc, _ *Resource, c *Cond) { p.Wait(c) },
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k := NewKernel()
			r := NewResource(k, "r", 1)
			c := NewCond(k, "c")
			if tc.partner != nil {
				k.SpawnDaemon("partner", func(p *Proc) { tc.partner(p, r, c) })
			}
			allocs := -1.0
			k.Spawn("measured", func(p *Proc) {
				for i := 0; i < 64; i++ { // reach steady state: queues at capacity
					tc.op(p, r, c)
				}
				allocs = testing.AllocsPerRun(200, func() { tc.op(p, r, c) })
			})
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
			if allocs != 0 {
				t.Fatalf("%s allocated %.2f times per operation, want 0", tc.name, allocs)
			}
		})
	}
}

// TestContendedQueueReusesStorage pins the wait queue's head-index
// bookkeeping: a queue that never drains must still be FIFO and must
// not grow with the number of grants.
func TestContendedQueueReusesStorage(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "slot", 1)
	const procs, rounds = 5, 400
	var order []int
	for i := 0; i < procs; i++ {
		i := i
		k.Spawn("w", func(p *Proc) {
			for j := 0; j < rounds; j++ {
				p.Acquire(r, 1)
				order = append(order, i)
				p.Hold(time.Nanosecond)
				p.Release(r, 1)
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for n, got := range order {
		if got != n%procs {
			t.Fatalf("grant %d went to proc %d, want %d (FIFO round-robin)", n, got, n%procs)
		}
	}
	if r.queueLen() != 0 || r.inUse != 0 {
		t.Fatalf("queue %d, in use %d after the run", r.queueLen(), r.inUse)
	}
	if c := cap(r.waiters); c > 4*procs {
		t.Fatalf("wait queue capacity %d after %d grants of %d procs", c, procs*rounds, procs)
	}
}

// TestDeadlockMessagePinned pins the deadlock report's exact text.
// A process in Hold always has an event pending, so a deadlocked
// kernel never lists one; "held" is there to show a process that
// parked in Hold and finished is not reported.
func TestDeadlockMessagePinned(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "disk0", 1)
	c := NewCond(k, "map-done")
	k.Spawn("owner", func(p *Proc) {
		p.Acquire(r, 1)
		p.Hold(2 * time.Second)
		p.Wait(c) // never broadcast, never releases
	})
	k.Spawn("held", func(p *Proc) { p.Hold(3 * time.Second) })
	k.Spawn("reader", func(p *Proc) {
		p.Hold(time.Second)
		p.Acquire(r, 1)
	})
	k.SpawnDaemon("sampler", func(p *Proc) { p.Wait(c) })
	err := k.Run()
	const want = "sim: deadlock at t=3s with 3 blocked procs: [owner(wait map-done) reader(acquire disk0) sampler(wait map-done)]"
	if err == nil || err.Error() != want {
		t.Fatalf("deadlock error\n got: %v\nwant: %s", err, want)
	}
}

// waitGoroutines polls until the goroutine count is back to base:
// coroutines and pool workers exit on their own schedule after Run
// returns.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines, want %d:\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// TestKillDuringUnwindParks kills processes whose deferred functions
// park again while the kill unwinds them — in Hold, Acquire and Wait,
// before their first resumption, and spawning a new process. Run must
// return, and every coroutine must be gone.
func TestKillDuringUnwindParks(t *testing.T) {
	base := runtime.NumGoroutine()
	k := NewKernel()
	k.SetWorkers(2)
	r := NewResource(k, "r", 1)
	c := NewCond(k, "c")
	unwound := 0
	victim := func(cleanup func(p *Proc)) func(p *Proc) {
		return func(p *Proc) {
			defer func() { unwound++ }()
			defer cleanup(p)
			defer p.Join()
			p.Fork(func() {})
			p.Wait(c)
			t.Error("victim resumed normally")
		}
	}
	k.SpawnDaemon("holds", victim(func(p *Proc) { p.Hold(time.Second) }))
	k.SpawnDaemon("acquires", victim(func(p *Proc) { p.Acquire(r, 1); p.Acquire(r, 1) }))
	k.SpawnDaemon("waits", victim(func(p *Proc) { p.Wait(c) }))
	k.SpawnDaemon("spawns", victim(func(p *Proc) {
		p.k.Spawn("orphan", func(*Proc) { t.Error("orphan ran") })
	}))
	k.Spawn("main", func(p *Proc) {
		p.Hold(time.Second)
		p.k.SpawnDaemon("never-started", func(*Proc) { t.Error("never-started ran") })
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if unwound != 4 {
		t.Fatalf("%d of 4 victims unwound", unwound)
	}
	waitGoroutines(t, base)
}

// TestProcPanicIsAnError: a panic in a process surfaces as Run's error
// on the caller's goroutine, after a clean shutdown of everything else.
func TestProcPanicIsAnError(t *testing.T) {
	base := runtime.NumGoroutine()
	k := NewKernel()
	k.SetWorkers(2)
	c := NewCond(k, "c")
	cleaned := false
	k.Spawn("bystander", func(p *Proc) {
		defer func() { cleaned = true }()
		p.Wait(c)
	})
	k.Spawn("reduce007", func(p *Proc) {
		p.Hold(time.Second)
		p.Fork(func() { panic("bad record") }).Wait()
	})
	k.Spawn("late", func(p *Proc) {
		p.Hold(2 * time.Second)
		t.Error("ran after the panic")
	})
	err := k.Run()
	const want = "sim: proc reduce007 panicked: sim: forked closure panicked: bad record"
	if err == nil || err.Error() != want {
		t.Fatalf("Run error\n got: %v\nwant: %s", err, want)
	}
	if !cleaned {
		t.Fatal("bystander was not unwound")
	}
	if k.Now() != int64(time.Second) {
		t.Fatalf("kernel ran on to t=%v after the panic", time.Duration(k.Now()))
	}
	waitGoroutines(t, base)
}

// BenchmarkKernelPingPong is the contended switch: two processes
// alternate on one Resource, so every operation is a queued Acquire, a
// Hold and a Release that wakes the other side.
func BenchmarkKernelPingPong(b *testing.B) {
	k := NewKernel()
	r := NewResource(k, "ball", 1)
	for _, name := range []string{"ping", "pong"} {
		k.Spawn(name, func(p *Proc) {
			for i := 0; i < b.N; i++ {
				r.Use(p, 1, time.Nanosecond)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkKernelEventLoop is the uncontended loop: 64 processes hold
// for unequal times, so one op is one event — a heap pop, a coroutine
// switch in and out, and a heap push.
func BenchmarkKernelEventLoop(b *testing.B) {
	k := NewKernel()
	for i := 0; i < 64; i++ {
		d := time.Duration(i%17+1) * time.Microsecond
		k.Spawn("holder", func(p *Proc) {
			for n := i; n < b.N; n += 64 {
				p.Hold(d)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// queueLen is the number of requests waiting on r.
func (r *Resource) queueLen() int { return len(r.waiters) - r.head }
