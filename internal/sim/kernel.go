// Package sim implements a deterministic process-oriented discrete-event
// simulation kernel.
//
// The reproduction executes the paper's cluster experiments (10 nodes ×
// 4 cores, map/reduce slots, per-node disks and NICs) on a single
// machine: every map/shuffle/merge/reduce operation processes real data,
// but time is virtual. Processes (Proc) are coroutines resumed one at a
// time by the Kernel in strict (time, sequence) order, so simulations
// are bit-for-bit deterministic. Resources model slots, CPU cores, disk
// arms, and NICs with FIFO queueing and utilization accounting, which
// the metrics package samples to reproduce the paper's CPU-utilization
// and iowait plots.
package sim

import (
	"fmt"
	"iter"
	"sort"
	"time"
)

// killSentinel is panicked inside a parked process when the kernel
// shuts down, unwinding the coroutine cleanly.
type killSentinel struct{}

// event is a scheduled resumption of a process.
type event struct {
	at  int64
	seq uint64
	p   *Proc
}

func (e event) before(o event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// eventHeap is a binary min-heap on (at, seq). seq is unique, so the
// pop order is a total order independent of the heap's layout.
type eventHeap []event

func (h *eventHeap) push(e event) {
	s := append(*h, e)
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e.before(s[parent]) {
			break
		}
		s[i] = s[parent]
		i = parent
	}
	s[i] = e
	*h = s
}

func (h *eventHeap) pop() event {
	s := *h
	top := s[0]
	n := len(s) - 1
	e := s[n]
	s[n] = event{} // drop the *Proc reference
	s = s[:n]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && s[c+1].before(s[c]) {
			c++
		}
		if !s[c].before(e) {
			break
		}
		s[i] = s[c]
		i = c
	}
	if n > 0 {
		s[i] = e
	}
	*h = s
	return top
}

// Kernel is a discrete-event simulation driver. Create with NewKernel,
// add processes with Spawn, then call Run. A Kernel must not be reused
// after Run returns.
type Kernel struct {
	now     int64
	seq     uint64
	events  eventHeap
	live    int // non-daemon procs not yet finished
	allPr   []*Proc
	started bool
	err     error
	workers *Workers // fork/join compute pool
}

// NewKernel returns an empty kernel at virtual time zero, whose forked
// closures run on its own thread (see SetWorkers).
func NewKernel() *Kernel { return &Kernel{workers: newWorkers(1)} }

// Now returns the current virtual time in nanoseconds since the start
// of the simulation.
func (k *Kernel) Now() int64 { return k.now }

// Proc is a simulated process. All its methods must be called from the
// process's own coroutine (the function passed to Spawn).
type Proc struct {
	k      *Kernel
	name   string
	daemon bool
	done   bool
	// why and on say what the process is parked in, for the deadlock
	// report: "hold", or "acquire "/"wait "/"spawn on " and the name.
	why, on string
	fn      func(p *Proc)           // the body, started at the first resumption
	next    func() (struct{}, bool) // kernel → process switch
	yield   func(struct{}) bool     // process → kernel switch; false = killed
	stop    func()                  // kill: a parked process's yield returns false
	forks   []*Future               // outstanding Fork futures, drained by Join
}

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Now returns the current virtual time in nanoseconds.
func (p *Proc) Now() int64 { return p.k.now }

// Spawn creates a process that starts at the current virtual time.
// It may be called before Run or from inside a running process.
func (k *Kernel) Spawn(name string, fn func(p *Proc)) { k.schedule(k.now, k.register(name, false, fn)) }

// SpawnDaemon creates a background process (e.g. a metrics sampler)
// that does not keep the simulation alive: Run returns when all
// non-daemon processes have finished, killing daemons.
func (k *Kernel) SpawnDaemon(name string, fn func(p *Proc)) {
	k.schedule(k.now, k.register(name, true, fn))
}

// SpawnAcquire creates a process that starts holding n units of r, as
// if fn's first statement were Acquire(r, n). A queued process counts
// as live and has no coroutine until Release grants it the units, so
// pending tasks cost no goroutine; a deadlock report names them.
func (k *Kernel) SpawnAcquire(name string, r *Resource, n int64, fn func(p *Proc)) {
	p := k.register(name, false, fn)
	p.why, p.on = "spawn on ", r.name
	if r.request(p, n) {
		k.schedule(k.now, p)
	}
}

func (k *Kernel) register(name string, daemon bool, fn func(p *Proc)) *Proc {
	p := &Proc{k: k, name: name, daemon: daemon, fn: fn}
	if !daemon {
		k.live++
	}
	k.allPr = append(k.allPr, p)
	return p
}

// start creates p's coroutine, at its first resumption: a process
// costs no goroutine before it runs.
func (k *Kernel) start(p *Proc) {
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			p.done, p.fn = true, nil
			r := recover()
			if _, kill := r.(killSentinel); r != nil && !kill && k.err == nil {
				k.err = fmt.Errorf("sim: proc %s panicked: %v", p.name, r)
			}
		}()
		p.fn(p)
	})
}

// schedule enqueues a resumption of p at time at.
func (k *Kernel) schedule(at int64, p *Proc) {
	k.seq++
	k.events.push(event{at: at, seq: k.seq, p: p})
}

// park switches from the running process back to the kernel. The
// process resumes when the kernel next schedules it. Once the kernel
// is shutting down every park — also one made by a deferred call
// during the unwind — raises killSentinel instead of switching.
func (p *Proc) park(why, on string) {
	p.why, p.on = why, on
	if !p.yield(struct{}{}) {
		panic(killSentinel{})
	}
}

// Hold advances the process's virtual time by d (which must be ≥ 0).
func (p *Proc) Hold(d time.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("sim: %s Hold(%v) negative", p.name, d))
	}
	p.k.schedule(p.k.now+int64(d), p)
	p.park("hold", "")
}

// Run executes the simulation until all non-daemon processes finish.
// It returns an error if the simulation deadlocks (live processes
// remain but no events are pending) or a process panics; either way
// every remaining process is killed before it returns.
func (k *Kernel) Run() error {
	if k.started {
		return fmt.Errorf("sim: kernel reused")
	}
	k.started = true
	for k.live > 0 && k.err == nil {
		if len(k.events) == 0 {
			k.err = k.deadlockError()
			break
		}
		e := k.events.pop()
		if e.at < k.now {
			panic("sim: time went backwards")
		}
		k.now = e.at
		p := e.p
		if p.done {
			continue // stale event for a finished process
		}
		if p.next == nil {
			k.start(p)
		}
		p.next()
		if p.done && !p.daemon {
			k.live--
		}
	}
	k.shutdown()
	return k.err
}

// deadlockError reports which processes are blocked and why. It is
// called with no event pending, so every unfinished process is parked.
func (k *Kernel) deadlockError() error {
	var names []string
	for _, p := range k.allPr {
		if !p.done {
			names = append(names, p.name+"("+p.why+p.on+")")
		}
	}
	sort.Strings(names)
	return fmt.Errorf("sim: deadlock at t=%v with %d blocked procs: %v", time.Duration(k.now), len(names), names)
}

// shutdown kills every remaining process so its coroutine exits.
func (k *Kernel) shutdown() {
	// Drain the compute pool first: a killed proc may hold Futures for
	// closures still queued or running, and its unwinding defers (Join)
	// must find them completed.
	k.workers.quiesce()
	// By index: an unwinding defer may Spawn, and that process must be
	// stopped too.
	for i := 0; i < len(k.allPr); i++ {
		if p := k.allPr[i]; !p.done {
			// A process never resumed has no coroutine; a parked one
			// sees its yield return false and unwinds (see park).
			p.done = true
			if p.stop != nil {
				p.stop()
			}
		}
	}
	k.workers.close()
}
