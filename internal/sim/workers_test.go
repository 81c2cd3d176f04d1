package sim

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestForkJoinResults checks that forked closures deliver results into
// their own slots and Join collects them all, for pool sizes 1..8.
func TestForkJoinResults(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		k := NewKernel()
		k.SetWorkers(workers)
		const n = 32
		got := make([]int, n)
		k.Spawn("fork", func(p *Proc) {
			for i := 0; i < n; i++ {
				i := i
				p.Fork(func() { got[i] = i * i })
			}
			p.Join()
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: slot %d = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

// TestForkDoesNotPerturbVirtualTime asserts the core determinism
// invariant: the event interleaving of two procs that fork compute
// between holds is identical for any worker count.
func TestForkDoesNotPerturbVirtualTime(t *testing.T) {
	run := func(workers int) string {
		k := NewKernel()
		k.SetWorkers(workers)
		var log []string
		for _, name := range []string{"a", "b"} {
			name := name
			k.Spawn(name, func(p *Proc) {
				for i := 0; i < 3; i++ {
					sum := 0
					f := p.Fork(func() {
						for j := 0; j < 1000; j++ {
							sum += j
						}
					})
					p.Hold(time.Duration(i+1) * time.Second)
					f.Wait()
					log = append(log, fmt.Sprintf("%s@%d:%d", name, p.Now()/1e9, sum))
				}
			})
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return strings.Join(log, " ")
	}
	want := run(1)
	for _, w := range []int{2, 4, runtime.GOMAXPROCS(0)} {
		for rep := 0; rep < 3; rep++ {
			if got := run(w); got != want {
				t.Fatalf("workers=%d rep=%d: %q != %q", w, rep, got, want)
			}
		}
	}
}

// TestForkPanicPropagates checks a panicking closure surfaces on the
// forking proc at Wait, not on a pool goroutine.
func TestForkPanicPropagates(t *testing.T) {
	for _, workers := range []int{1, 4} {
		k := NewKernel()
		k.SetWorkers(workers)
		caught := false
		k.Spawn("p", func(p *Proc) {
			defer func() {
				if r := recover(); r != nil {
					caught = strings.Contains(fmt.Sprint(r), "boom")
				}
			}()
			f := p.Fork(func() { panic("boom") })
			f.Wait()
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		if !caught {
			t.Fatalf("workers=%d: panic not propagated to Wait", workers)
		}
	}
}

// TestShutdownWithInFlightCompute kills a proc that parked with forks
// still queued/running: Run must quiesce the pool and return without
// leaking the proc goroutine or the compute. Guards the old shutdown
// bug where a goroutine not parked on resume hit the select/default
// branch and leaked.
func TestShutdownWithInFlightCompute(t *testing.T) {
	k := NewKernel()
	k.SetWorkers(4)
	started := make(chan struct{})
	var finished atomic.Int32
	k.SpawnDaemon("victim", func(p *Proc) {
		for i := 0; i < 8; i++ {
			p.Fork(func() {
				finished.Add(1)
			})
		}
		close(started)
		// Park forever with forks outstanding; the kernel kills this
		// daemon at shutdown while compute may still be in flight.
		p.Hold(time.Hour)
		p.Join()
	})
	k.Spawn("work", func(p *Proc) {
		<-started // make sure the daemon has forked before we finish
		p.Hold(time.Millisecond)
	})
	doneCh := make(chan error, 1)
	go func() { doneCh <- k.Run() }()
	select {
	case err := <-doneCh:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run hung at shutdown with in-flight compute")
	}
	if got := finished.Load(); got != 8 {
		t.Fatalf("shutdown did not quiesce pool: %d/8 closures finished", got)
	}
}

// TestShutdownKillsNeverStartedProc spawns a proc from another proc's
// final instant so its goroutine may not have reached its first resume
// receive when Run tears down; shutdown must still unwind it.
func TestShutdownKillsNeverStartedProc(t *testing.T) {
	for rep := 0; rep < 50; rep++ {
		k := NewKernel()
		ran := false
		k.Spawn("parent", func(p *Proc) {
			// Daemon scheduled at the same instant the simulation ends:
			// it is never resumed, only killed.
			p.k.SpawnDaemon("orphan", func(q *Proc) {
				ran = true
			})
		})
		doneCh := make(chan error, 1)
		go func() { doneCh <- k.Run() }()
		select {
		case err := <-doneCh:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("Run hung killing a never-started proc")
		}
		if ran {
			t.Fatal("orphan daemon body ran after kill")
		}
	}
}

// TestForkAcrossPark exercises the overlap pattern used by map tasks:
// fork, park on a hold (other procs run), then join — under -race this
// is the main check that pool compute cannot race with kernel state.
func TestForkAcrossPark(t *testing.T) {
	k := NewKernel()
	k.SetWorkers(4)
	var total int64
	for i := 0; i < 16; i++ {
		i := i
		k.Spawn(fmt.Sprintf("t%d", i), func(p *Proc) {
			sum := int64(0)
			f := p.Fork(func() {
				for j := int64(0); j < 10000; j++ {
					sum += j
				}
			})
			p.Hold(time.Duration(i%5+1) * time.Second)
			f.Wait()
			total += sum
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if want := int64(16 * 10000 * 9999 / 2); total != want {
		t.Fatalf("total=%d want %d", total, want)
	}
}

// TestSetWorkersAfterRunPanics locks in the must-configure-before-Run
// contract.
func TestSetWorkersAfterRunPanics(t *testing.T) {
	k := NewKernel()
	k.Spawn("a", func(p *Proc) {})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic from SetWorkers after Run")
		}
	}()
	k.SetWorkers(4)
}

// TestOffloadOverlapsItsCharge pins Offload's contract: the virtual
// times are those of `fn(); charge()` for any pool size, and with a
// pool fn really runs while the process is parked in charge (fn blocks
// until a second process, which can only run during that park, says
// so).
func TestOffloadOverlapsItsCharge(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		k := NewKernel()
		k.SetWorkers(workers)
		other := make(chan struct{})
		var got, end int64
		k.Spawn("offloader", func(p *Proc) {
			p.Offload(func() {
				if workers > 1 {
					<-other // closed by "other" while this process is parked
				}
				got = 42
			}, func() { p.Hold(3 * time.Second) })
			end = p.Now()
		})
		k.Spawn("other", func(p *Proc) {
			p.Hold(time.Second)
			close(other)
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		if got != 42 || end != int64(3*time.Second) {
			t.Fatalf("workers=%d: result %d at t=%v, want 42 at 3s", workers, got, time.Duration(end))
		}
	}
}

// TestOffloadWaitsOnPanic: when charge panics while fn is still
// running, Offload returns — by re-raising the panic — only after fn
// has finished, so an unwinding attempt never hands back buffers a
// closure still writes into.
func TestOffloadWaitsOnPanic(t *testing.T) {
	k := NewKernel()
	k.SetWorkers(2)
	release := make(chan struct{})
	var fnDone atomic.Bool
	var recovered interface{}
	var doneAtRecover bool
	k.Spawn("attempt", func(p *Proc) {
		defer func() {
			recovered = recover()
			doneAtRecover = fnDone.Load()
			if len(p.forks) != 0 {
				t.Errorf("%d futures still listed after Offload", len(p.forks))
			}
		}()
		p.Offload(func() {
			<-release
			time.Sleep(10 * time.Millisecond) // still "writing" after charge has panicked
			fnDone.Store(true)
		}, func() {
			close(release)
			panic("node aborted")
		})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if recovered != "node aborted" {
		t.Fatalf("recovered %v, want charge's panic", recovered)
	}
	if !doneAtRecover {
		t.Fatal("Offload unwound while fn was still running")
	}
}

// TestWaitRunsClosuresQueuedBehindABusyPool: with SetWorkers(2) the
// kernel's thread is one of the two, so a Wait (or an Offload) whose
// closure is queued behind the one pool goroutine — held on a gate here
// — runs that closure itself instead of waiting for the gate.
func TestWaitRunsClosuresQueuedBehindABusyPool(t *testing.T) {
	k := NewKernel()
	k.SetWorkers(2)
	gate, held := make(chan struct{}), make(chan struct{}, 2)
	got := 0
	k.Spawn("p", func(p *Proc) {
		for range 2 { // a gated closure per pool goroutine, were there two
			p.Fork(func() { held <- struct{}{}; <-gate })
		}
		<-held
		p.Fork(func() { got++ }).Wait()
		p.Offload(func() { got++ }, func() { p.Hold(time.Second) })
		close(gate)
		p.Join()
	})
	done := make(chan error, 1)
	go func() { done <- k.Run() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Wait blocked on a closure queued behind the gated pool goroutine")
	}
	if got != 2 {
		t.Fatalf("%d of 2 closures ran", got)
	}
}

// TestSetWorkersCountsTheKernelThread: SetWorkers(n) starts exactly
// n−1 pool goroutines. Gated closures, more than there are threads,
// are entered by every pool goroutine and by nothing else while the
// kernel's thread is busy in the process; Join then runs the rest.
func TestSetWorkersCountsTheKernelThread(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4} {
		k := NewKernel()
		k.SetWorkers(n)
		gate := make(chan struct{})
		var entered atomic.Int32
		k.Spawn("p", func(p *Proc) {
			for range n + 2 {
				p.Fork(func() { entered.Add(1); <-gate })
			}
			for deadline := time.Now().Add(5 * time.Second); entered.Load() < int32(n-1) && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
			}
			time.Sleep(20 * time.Millisecond) // room for a goroutine too many
			if got := entered.Load(); got != int32(n-1) {
				t.Errorf("SetWorkers(%d): %d pool goroutines ran closures, want %d", n, got, n-1)
			}
			close(gate)
			p.Join()
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		if got := entered.Load(); got != int32(n+2) {
			t.Fatalf("SetWorkers(%d): %d of %d closures ran", n, got, n+2)
		}
	}
}

// TestShutdownRunsKilledProcessClosures: closures queued by a process
// that is then killed are run by shutdown on the kernel's thread — at
// n = 2 the one pool goroutine is held until all of them have run.
func TestShutdownRunsKilledProcessClosures(t *testing.T) {
	for _, workers := range []int{1, 2} {
		k := NewKernel()
		k.SetWorkers(workers)
		gate := make(chan struct{})
		var ran atomic.Int32
		k.SpawnDaemon("victim", func(p *Proc) {
			if workers > 1 {
				p.Fork(func() { <-gate })
			}
			for range 4 {
				p.Fork(func() {
					if ran.Add(1) == 4 {
						close(gate)
					}
				})
			}
			p.Hold(time.Hour) // killed here, its forks never waited for
		})
		k.Spawn("work", func(p *Proc) { p.Hold(time.Second) })
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		if got := ran.Load(); got != 4 {
			t.Fatalf("workers=%d: shutdown ran %d of 4 queued closures", workers, got)
		}
	}
}

// TestFinishedFuturesAreNotRetained: a long-lived process that forks
// and waits (or offloads) in a loop must not accumulate futures — each
// pins its closure and whatever that captured — in its forks list or
// in the pool's queue storage.
func TestFinishedFuturesAreNotRetained(t *testing.T) {
	k := NewKernel()
	k.SetWorkers(3)
	k.Spawn("looper", func(p *Proc) {
		buf := make([]byte, 1<<10)
		for i := 0; i < 10_000; i++ {
			if i%2 == 0 {
				p.Fork(func() { buf[0]++ }).Wait()
			} else {
				p.Offload(func() { buf[1]++ }, func() {})
			}
			if n := len(p.forks); n != 0 {
				t.Fatalf("iteration %d: %d futures listed after their wait", i, n)
			}
		}
		// A future forked and left for Join is still drained by it.
		left := p.Fork(func() {})
		p.Fork(func() {}).Wait()
		if len(p.forks) != 1 || p.forks[0] != left {
			t.Fatalf("forks = %v, want only the unwaited future", p.forks)
		}
		p.Join()
		if len(p.forks) != 0 {
			t.Fatalf("%d futures listed after Join", len(p.forks))
		}
		w := p.k.workers
		w.mu.Lock()
		defer w.mu.Unlock()
		for i, f := range w.queue[:cap(w.queue)] {
			if f != nil {
				t.Fatalf("queue slot %d of %d still holds a finished future", i, cap(w.queue))
			}
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}
