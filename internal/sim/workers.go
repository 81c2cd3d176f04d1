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
// The pool computes on n threads: the kernel's own, which runs queued
// closures whenever a process waits for one, and n−1 pool goroutines.
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
//     order, so the merged outcome is independent of which thread ran
//     each closure and of how many there are (including 1, where the
//     kernel's thread runs every closure when its process waits).
//
// Virtual time never depends on how many workers exist: charges are
// computed from the data, not from wall-clock, so event order, virtual
// times, and reports are identical for any pool size.
type Workers struct {
	n int

	mu      sync.Mutex
	cond    *sync.Cond
	queue   []*Future // queued futures are queue[head:]; taken slots are nil
	head    int
	started bool
	closed  bool

	inFlight sync.WaitGroup // submissions not yet finished (for shutdown)
}

// newWorkers creates a pool of n threads (n ≤ 0 means GOMAXPROCS). Its
// n−1 goroutines start lazily on first submission.
func newWorkers(n int) *Workers {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	w := &Workers{n: n}
	w.cond = sync.NewCond(&w.mu)
	return w
}

// submit enqueues a future for execution on the pool. One submitted
// after the pool closed is still run by its Wait.
func (w *Workers) submit(f *Future) {
	w.mu.Lock()
	if !w.started {
		w.started = true
		for i := 1; i < w.n; i++ {
			go w.work()
		}
	}
	w.inFlight.Add(1)
	f.slot = len(w.queue)
	w.queue = append(w.queue, f)
	w.mu.Unlock()
	w.cond.Signal()
}

// takeLocked removes a queued future from its slot. Clearing the slot
// matters: a finished future pins its closure and what that captured.
// The head skips taken slots, and the queue rewinds once drained to
// reuse its storage.
func (w *Workers) takeLocked(f *Future) *Future {
	w.queue[f.slot], f.slot = nil, -1
	for w.head < len(w.queue) && w.queue[w.head] == nil {
		w.head++
	}
	if w.head == len(w.queue) {
		w.queue, w.head = w.queue[:0], 0
	}
	return f
}

// popLocked takes the oldest queued future, or returns nil if none is.
func (w *Workers) popLocked() *Future {
	if w.head == len(w.queue) {
		return nil
	}
	return w.takeLocked(w.queue[w.head])
}

// work is one pool goroutine: run queued futures until the pool closes.
func (w *Workers) work() {
	w.mu.Lock()
	for {
		for w.head == len(w.queue) && !w.closed {
			w.cond.Wait()
		}
		f := w.popLocked()
		w.mu.Unlock()
		if f == nil {
			return // closed and drained
		}
		f.run()
		w.mu.Lock()
	}
}

// await returns once f has finished, computing on the calling thread —
// the kernel's — rather than blocking: it takes f out of its slot and
// runs it if no pool goroutine has started it, and otherwise runs other
// queued closures in queue order until f is done. It blocks only when
// the queue is empty; nothing is queued meanwhile, because only the
// kernel's thread submits.
func (w *Workers) await(f *Future) {
	for {
		select {
		case <-f.done:
			return
		default:
		}
		w.mu.Lock()
		g := f
		if f.slot >= 0 {
			w.takeLocked(f)
		} else {
			g = w.popLocked()
		}
		w.mu.Unlock()
		if g == nil {
			<-f.done
			return
		}
		g.run()
	}
}

// quiesce returns once every submitted closure has finished: it runs
// what is still queued (closures of killed processes, say) and then
// waits for those pool goroutines are running. The kernel calls it
// during shutdown so nothing is still computing when Run returns.
func (w *Workers) quiesce() {
	w.mu.Lock()
	for f := w.popLocked(); f != nil; f = w.popLocked() {
		w.mu.Unlock()
		f.run()
		w.mu.Lock()
	}
	w.mu.Unlock()
	w.inFlight.Wait()
}

// close marks the pool closed, so its goroutines exit, and quiesces it
// again for whatever an unwinding process forked.
func (w *Workers) close() {
	w.mu.Lock()
	w.closed = true
	w.mu.Unlock()
	w.cond.Broadcast()
	w.quiesce()
}

// Future is the handle of one forked closure.
type Future struct {
	fn       func()
	done     chan struct{}
	panicked interface{}
	w        *Workers
	slot     int   // index in w.queue while queued; -1 once taken
	p        *Proc // the process whose forks list holds it (nil once waited)
}

// run executes a taken future's closure, capturing a panic instead of
// letting it kill the thread running it (it is re-raised on the forking
// process at Wait/Join, where it is attributable to a task).
func (f *Future) run() {
	defer f.w.inFlight.Done()
	defer close(f.done)
	defer func() {
		if r := recover(); r != nil {
			f.panicked = r
		}
	}()
	f.fn()
}

// Wait returns once the closure has finished, running it — or, while a
// pool goroutine runs it, other queued closures — on the kernel's
// thread instead of blocking. If the closure panicked, the panic is
// re-raised here, on the forking process's goroutine. Wait must be
// called from the process that forked the future.
func (f *Future) Wait() {
	f.w.await(f)
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

// SetWorkers sizes the kernel's compute pool: forked closures run on n
// threads (n ≤ 0 means GOMAXPROCS), the kernel's own and n−1 pool
// goroutines. With n = 1 the kernel's thread runs every closure, each
// when a process waits for it. It must be called before Run.
func (k *Kernel) SetWorkers(n int) {
	if k.started {
		panic("sim: SetWorkers after Run")
	}
	k.workers = newWorkers(n)
}

// Workers returns the number of threads forked closures run on.
func (k *Kernel) Workers() int { return k.workers.n }

// Fork queues a pure compute closure on the kernel's pool and returns
// its Future. The closure must not touch simulation state (the kernel,
// resources, conds, other procs' data); it computes into its own
// captured result slot. The process may park (Hold, Acquire, …)
// between Fork and Wait — a pool goroutine, or the kernel's thread when
// another process waits, may run the closure meanwhile — but it must
// Wait (or Join) before consuming the result or finishing.
//
// Determinism follows from the purity contract above, whichever thread
// runs the closure and however many there are.
func (p *Proc) Fork(fn func()) *Future {
	f := &Future{fn: fn, done: make(chan struct{}), w: p.k.workers, p: p}
	p.forks = append(p.forks, f)
	p.k.workers.submit(f)
	return f
}

// Offload runs the pure compute fn on the worker pool while charge —
// which parks this process in virtual time, so the kernel serves other
// processes meanwhile — runs here. It is legal wherever charge depends
// only on sizes known before fn runs: the charges, their order and so
// every virtual time are those of `fn(); charge()`, whichever thread
// runs fn. fn obeys the Fork purity contract: it never touches the
// process. Offload waits for fn on every exit path: when charge panics
// (node abort, kill) the unwinding attempt must not hand back buffers
// fn still writes; nothing stays listed in p.forks.
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
