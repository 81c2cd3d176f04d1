package sim

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
)

// Workers is the kernel's deterministic fork/join compute pool.
//
// The kernel schedules exactly one simulated process at a time, which
// keeps virtual time bit-for-bit deterministic — but it also serializes
// the real CPU work (parsing, map functions, sorting, hash builds) that
// runs inside each process. Determinism only requires the *ordering* of
// simulated events, not serialization of the pure computation between
// them, so a running Proc may Fork self-contained closures onto real
// goroutines and Wait/Join for their results before it touches shared
// simulation state or parks.
//
// The contract that makes this race-free and deterministic by
// construction:
//
//   - a forked closure is pure with respect to the simulation: it reads
//     only data captured at Fork time and writes only its own result
//     slot (per-closure scratch, seeded RNG streams keyed by its input
//     — never kernel, resource, or collector state);
//   - the forking process waits for a closure's Future before consuming
//     its result, and all results are consumed in a fixed program
//     order, so the merged outcome is independent of worker count
//     (including 1, where closures run inline on the proc goroutine).
//
// Virtual time never depends on how many workers exist: charges are
// computed from the data, not from wall-clock, so event order, virtual
// times, and reports are identical for any pool size.
type Workers struct {
	n int

	mu      sync.Mutex
	cond    *sync.Cond
	queue   []*Future // pending futures are queue[head:]; popped slots are nil
	head    int
	started bool
	closed  bool

	inFlight sync.WaitGroup // submissions not yet finished (for shutdown)
}

// newWorkers creates a pool of n workers (n ≥ 1 after defaulting).
// Worker goroutines start lazily on first submission.
func newWorkers(n int) *Workers {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	w := &Workers{n: n}
	w.cond = sync.NewCond(&w.mu)
	return w
}

// submit enqueues a future for execution on the pool.
func (w *Workers) submit(f *Future) {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		// The kernel has shut down; run inline so the Future still
		// completes and Wait never hangs.
		f.run()
		return
	}
	if !w.started {
		w.started = true
		for i := 0; i < w.n; i++ {
			go w.work()
		}
	}
	w.inFlight.Add(1)
	w.queue = append(w.queue, f)
	w.mu.Unlock()
	w.cond.Signal()
}

// work is one pool goroutine: run queued futures until the pool closes.
func (w *Workers) work() {
	for {
		w.mu.Lock()
		for w.head == len(w.queue) && !w.closed {
			w.cond.Wait()
		}
		if w.head == len(w.queue) {
			w.mu.Unlock()
			return
		}
		// Clear the popped slot (a finished future pins its closure and
		// what that captured); rewind once drained to reuse the storage.
		f := w.queue[w.head]
		w.queue[w.head] = nil
		if w.head++; w.head == len(w.queue) {
			w.queue, w.head = w.queue[:0], 0
		}
		w.mu.Unlock()
		f.run()
		w.inFlight.Done()
	}
}

// quiesce blocks until every submitted closure has finished. The
// kernel calls it during shutdown so no worker goroutine is still
// computing (and no Future is still pending) when Run returns.
func (w *Workers) quiesce() { w.inFlight.Wait() }

// close marks the pool closed and wakes the workers so they exit.
// Pending futures are drained first (quiesce runs before close).
func (w *Workers) close() {
	w.mu.Lock()
	w.closed = true
	w.mu.Unlock()
	w.cond.Broadcast()
}

// Future is the handle of one forked closure.
type Future struct {
	fn       func()
	done     chan struct{}
	panicked interface{}
	p        *Proc // the process whose forks list holds it (nil: none)
}

// run executes the closure, capturing a panic instead of letting it
// kill the worker goroutine (it is re-raised on the forking process at
// Wait/Join, where it is attributable to a task).
func (f *Future) run() {
	defer close(f.done)
	defer func() {
		if r := recover(); r != nil {
			f.panicked = r
		}
	}()
	f.fn()
}

// Wait blocks until the closure has finished. If the closure panicked,
// the panic is re-raised here, on the forking process's goroutine.
// Wait must be called from the process that forked the future.
func (f *Future) Wait() {
	<-f.done
	if p := f.p; p != nil {
		// Nothing left for Join: drop it, so a process that forks and
		// waits in a loop does not pin every closure until it ends.
		f.p = nil
		if i := slices.Index(p.forks, f); i >= 0 {
			p.forks = slices.Delete(p.forks, i, i+1) // zeroes the vacated tail slot
		}
	}
	if r := f.panicked; r != nil {
		f.panicked = nil
		panic(fmt.Sprintf("sim: forked closure panicked: %v", r))
	}
}

// SetWorkers sizes the kernel's compute pool: n real goroutines execute
// forked closures (n ≤ 0 means GOMAXPROCS). With n = 1 closures run
// inline on the forking process's goroutine. It must be called before
// Run.
func (k *Kernel) SetWorkers(n int) {
	if k.started {
		panic("sim: SetWorkers after Run")
	}
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n == 1 {
		k.workers = nil // inline execution, no pool goroutines
		return
	}
	k.workers = newWorkers(n)
}

// Workers returns the compute-pool size (1 when no pool is configured).
func (k *Kernel) Workers() int {
	if k.workers == nil {
		return 1
	}
	return k.workers.n
}

// Workers returns the kernel compute-pool size (1 when compute runs
// inline): the map driver sizes its look-ahead window from it. It is
// not part of substrate.Proc — platform components never see it.
func (p *Proc) Workers() int { return p.k.Workers() }

// Fork submits a pure compute closure to the kernel's worker pool and
// returns its Future. The closure must not touch simulation state (the
// kernel, resources, conds, other procs' data); it computes into its
// own captured result slot. The process may park (Hold, Acquire, …)
// between Fork and Wait — real compute then overlaps the virtual time
// of this and other processes — but it must Wait (or Join) before
// consuming the result or finishing.
//
// With no pool (Workers() == 1) the closure runs inline, making the
// scheduling trivially deterministic; with a pool, determinism follows
// from the purity contract above.
func (p *Proc) Fork(fn func()) *Future {
	f := &Future{fn: fn, done: make(chan struct{})}
	if p.k.workers == nil {
		f.run()
	} else {
		f.p = p
		p.forks = append(p.forks, f)
		p.k.workers.submit(f)
	}
	return f
}

// Offload runs the pure compute fn on the worker pool while charge —
// which parks this process in virtual time, so the kernel serves other
// processes meanwhile — runs here. It is legal wherever charge depends
// only on sizes known before fn runs: the charges, their order and so
// every virtual time are those of `fn(); charge()`, which is what runs
// when there is no pool. fn obeys the Fork purity contract: it never
// touches the process. Offload waits for fn on every exit path: when
// charge panics (node abort, kill) the unwinding attempt must not hand
// back buffers fn still writes; nothing stays listed in p.forks.
func (p *Proc) Offload(fn, charge func()) {
	f := p.Fork(fn)
	defer f.Wait() // drops f from p.forks; re-raises a panic of fn, over one of charge
	charge()
}

// Join waits for every outstanding Fork of this process, re-raising the
// first captured panic. It is idempotent and cheap when nothing is
// outstanding; tasks with conditional early exits should `defer
// p.Join()` so no future outlives its attempt.
func (p *Proc) Join() {
	for len(p.forks) > 0 {
		p.forks[0].Wait() // drops it from the list, also when it re-panics
	}
}
