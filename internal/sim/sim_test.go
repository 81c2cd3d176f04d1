package sim

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestHoldAdvancesTime(t *testing.T) {
	k := NewKernel()
	var at int64
	k.Spawn("a", func(p *Proc) {
		p.Hold(5 * time.Second)
		at = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if at != int64(5*time.Second) {
		t.Fatalf("time after hold = %d", at)
	}
}

func TestFIFOOrderingSameInstant(t *testing.T) {
	k := NewKernel()
	var order []string
	for _, name := range []string{"a", "b", "c"} {
		name := name
		k.Spawn(name, func(p *Proc) {
			order = append(order, name)
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(order, ""); got != "abc" {
		t.Fatalf("spawn order not FIFO: %s", got)
	}
}

func TestInterleavingDeterministic(t *testing.T) {
	run := func() string {
		k := NewKernel()
		var log []string
		k.Spawn("a", func(p *Proc) {
			for i := 0; i < 3; i++ {
				p.Hold(2 * time.Second)
				log = append(log, fmt.Sprintf("a@%d", p.Now()/1e9))
			}
		})
		k.Spawn("b", func(p *Proc) {
			for i := 0; i < 2; i++ {
				p.Hold(3 * time.Second)
				log = append(log, fmt.Sprintf("b@%d", p.Now()/1e9))
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return strings.Join(log, " ")
	}
	// At t=6 both are runnable; b scheduled its wakeup at t=3, before a
	// did at t=4, so FIFO-by-scheduling-order runs b first.
	first := run()
	if first != "a@2 b@3 a@4 b@6 a@6" {
		t.Fatalf("unexpected interleaving: %s", first)
	}
	for i := 0; i < 5; i++ {
		if got := run(); got != first {
			t.Fatalf("non-deterministic: %s vs %s", got, first)
		}
	}
}

func TestResourceCapacityLimitsParallelism(t *testing.T) {
	k := NewKernel()
	disk := NewResource(k, "disk", 1)
	var finishTimes []int64
	for i := 0; i < 3; i++ {
		k.Spawn(fmt.Sprintf("io%d", i), func(p *Proc) {
			disk.Use(p, 1, 10*time.Second)
			finishTimes = append(finishTimes, p.Now())
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int64{int64(10 * time.Second), int64(20 * time.Second), int64(30 * time.Second)}
	for i, w := range want {
		if finishTimes[i] != w {
			t.Fatalf("finish[%d]=%v want %v", i, finishTimes[i], w)
		}
	}
}

func TestResourceConcurrentWithinCapacity(t *testing.T) {
	k := NewKernel()
	cpu := NewResource(k, "cpu", 4)
	var last int64
	for i := 0; i < 4; i++ {
		k.Spawn(fmt.Sprintf("t%d", i), func(p *Proc) {
			cpu.Use(p, 1, 7*time.Second)
			last = p.Now()
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if last != int64(7*time.Second) {
		t.Fatalf("4 tasks on 4 cores should all finish at 7s, got %v", time.Duration(last))
	}
}

func TestResourceFIFONoOvertaking(t *testing.T) {
	// A small request queued behind a big one must not jump the queue.
	k := NewKernel()
	r := NewResource(k, "r", 4)
	var order []string
	k.Spawn("hog", func(p *Proc) {
		p.Acquire(r, 4)
		p.Hold(10 * time.Second)
		p.Release(r, 4)
	})
	k.Spawn("big", func(p *Proc) {
		p.Hold(time.Second)
		p.Acquire(r, 3)
		order = append(order, "big")
		p.Hold(5 * time.Second)
		p.Release(r, 3)
	})
	k.Spawn("small", func(p *Proc) {
		p.Hold(2 * time.Second)
		p.Acquire(r, 1)
		order = append(order, "small")
		p.Release(r, 1)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if strings.Join(order, ",") != "big,small" {
		t.Fatalf("queue overtaken: %v", order)
	}
}

func TestBusyIntegral(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "disk", 1)
	k.Spawn("a", func(p *Proc) {
		p.Hold(5 * time.Second)
		r.Use(p, 1, 10*time.Second)
		p.Hold(5 * time.Second)
		if got, want := r.BusyIntegral(), int64(10*time.Second); got != want {
			t.Errorf("busy integral %d want %d", got, want)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestCondBroadcast(t *testing.T) {
	k := NewKernel()
	c := NewCond(k, "ready")
	ready := false
	var woke []int64
	for i := 0; i < 3; i++ {
		k.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
			p.WaitFor(c, func() bool { return ready })
			woke = append(woke, p.Now())
		})
	}
	k.Spawn("signaler", func(p *Proc) {
		p.Hold(4 * time.Second)
		ready = true
		c.Broadcast()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(woke) != 3 {
		t.Fatalf("woke %d waiters", len(woke))
	}
	for _, w := range woke {
		if w != int64(4*time.Second) {
			t.Fatalf("waiter woke at %v", time.Duration(w))
		}
	}
}

func TestDeadlockDetected(t *testing.T) {
	k := NewKernel()
	c := NewCond(k, "never")
	k.Spawn("stuck", func(p *Proc) {
		p.Wait(c)
	})
	err := k.Run()
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("expected deadlock error, got %v", err)
	}
}

func TestDaemonDoesNotBlockCompletion(t *testing.T) {
	k := NewKernel()
	samples := 0
	k.SpawnDaemon("sampler", func(p *Proc) {
		for {
			p.Hold(time.Second)
			samples++
		}
	})
	k.Spawn("work", func(p *Proc) {
		p.Hold(10 * time.Second)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// The sampler ticks at t=1..9; at t=10 the (earlier-scheduled)
	// worker event runs first and ends the simulation, so the final
	// same-instant daemon tick is not delivered. Callers that need a
	// final sample take one after Run returns.
	if samples != 9 {
		t.Fatalf("sampler ticked %d times, want 9", samples)
	}
}

func TestSpawnFromProcess(t *testing.T) {
	k := NewKernel()
	var childTime int64
	k.Spawn("parent", func(p *Proc) {
		p.Hold(3 * time.Second)
		p.k.Spawn("child", func(q *Proc) {
			q.Hold(2 * time.Second)
			childTime = q.Now()
		})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if childTime != int64(5*time.Second) {
		t.Fatalf("child finished at %v", time.Duration(childTime))
	}
}

// TestQueueIntegral: the queue length a sampler reads once a second
// integrates to the time b waits behind a (10s), while the busy
// integral covers both uses back to back.
func TestQueueIntegral(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "disk", 1)
	k.Spawn("a", func(p *Proc) { r.Use(p, 1, 10*time.Second) })
	k.Spawn("b", func(p *Proc) { r.Use(p, 1, 10*time.Second) })
	var queued int64
	k.SpawnDaemon("sampler", func(p *Proc) {
		for {
			queued += int64(r.queueLen()) * int64(time.Second)
			p.Hold(time.Second)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if want := int64(10 * time.Second); queued != want {
		t.Fatalf("queue integral %d want %d", queued, want)
	}
	if got, want := r.BusyIntegral(), int64(20*time.Second); got != want {
		t.Fatalf("busy integral %d want %d", got, want)
	}
}

func TestKernelReuseRejected(t *testing.T) {
	k := NewKernel()
	k.Spawn("a", func(p *Proc) {})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); err == nil {
		t.Fatal("expected error on reuse")
	}
}

func TestManyProcessesStress(t *testing.T) {
	k := NewKernel()
	cpu := NewResource(k, "cpu", 4)
	done := 0
	for i := 0; i < 500; i++ {
		d := time.Duration(i%17+1) * time.Millisecond
		k.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			for j := 0; j < 5; j++ {
				cpu.Use(p, 1, d)
			}
			done++
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if done != 500 {
		t.Fatalf("done=%d", done)
	}
}

func BenchmarkKernelContextSwitch(b *testing.B) {
	k := NewKernel()
	k.Spawn("switcher", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Hold(time.Nanosecond)
		}
	})
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

func TestAcquireOverCapacityPanics(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "r", 2)
	k.Spawn("p", func(p *Proc) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic acquiring beyond capacity")
			}
		}()
		p.Acquire(r, 3)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestOverReleasePanics(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "r", 2)
	k.Spawn("p", func(p *Proc) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic on over-release")
			}
		}()
		p.Release(r, 1)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestNegativeHoldPanics(t *testing.T) {
	k := NewKernel()
	k.Spawn("p", func(p *Proc) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic on negative hold")
			}
		}()
		p.Hold(-time.Second)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestZeroCapacityResourcePanics(t *testing.T) {
	k := NewKernel()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewResource(k, "bad", 0)
}

// TestYieldOrdersBehindSameInstant: a zero Hold yields, letting the
// processes scheduled for this instant run first.
func TestYieldOrdersBehindSameInstant(t *testing.T) {
	k := NewKernel()
	var order []string
	k.Spawn("a", func(p *Proc) {
		p.Hold(0)
		order = append(order, "a-after-yield")
	})
	k.Spawn("b", func(p *Proc) {
		order = append(order, "b")
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if strings.Join(order, ",") != "b,a-after-yield" {
		t.Fatalf("yield did not defer: %v", order)
	}
}

func TestResourceNamesAndCapacity(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "disk0", 3)
	if r.name != "disk0" || r.queueLen() != 0 || r.BusyIntegral() != 0 {
		t.Fatal("accessors broken")
	}
	// Three units fit at once; a fourth request queues behind them.
	k.Spawn("full", func(p *Proc) { r.Use(p, 3, time.Second) })
	k.Spawn("late", func(p *Proc) {
		p.Acquire(r, 1)
		if p.Now() != int64(time.Second) {
			t.Errorf("acquired at %v, want 1s", time.Duration(p.Now()))
		}
		p.Release(r, 1)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got, want := r.BusyIntegral(), int64(3*time.Second); got != want {
		t.Fatalf("busy integral %d want %d", got, want)
	}
}
