package sim

import "fmt"

// Resource models a countable resource with FIFO queueing: task slots
// (capacity = slots per node), CPU cores (capacity = cores), a disk arm
// (capacity = 1), or NIC bandwidth tokens. Processes Acquire units,
// hold them across virtual time, and Release them.
//
// The resource keeps the time integral of units in use and its queue
// length, from which the metrics package derives utilization (for the
// paper's CPU plots) and wait pressure (for the iowait plots).
type Resource struct {
	k        *Kernel
	name     string
	capacity int64
	inUse    int64
	waiters  []waiter // FIFO queue: waiters[head:] are waiting
	head     int

	lastChange   int64 // virtual time busyIntegral is accumulated to
	busyIntegral int64 // ∫ inUse dt, in unit·nanoseconds
}

type waiter struct {
	p *Proc
	n int64
}

// NewResource creates a resource with the given capacity (> 0).
func NewResource(k *Kernel, name string, capacity int64) *Resource {
	if capacity <= 0 {
		panic(fmt.Sprintf("sim: resource %s capacity %d", name, capacity))
	}
	return &Resource{k: k, name: name, capacity: capacity}
}

// advance accumulates the busy integral up to the current instant.
func (r *Resource) advance() {
	r.busyIntegral += r.inUse * (r.k.now - r.lastChange)
	r.lastChange = r.k.now
}

// BusyIntegral returns ∫ unitsInUse dt up to now, in unit·nanoseconds.
func (r *Resource) BusyIntegral() int64 {
	r.advance()
	return r.busyIntegral
}

// Acquire blocks the process until n units are available, then takes
// them. Grants are strictly FIFO: a request never overtakes an earlier
// one even if it could be satisfied sooner, matching slot scheduling.
func (p *Proc) Acquire(r *Resource, n int64) {
	if !r.request(p, n) {
		p.park("acquire ", r.name)
	}
}

// request takes n units for p at once if no request waits and they
// fit, and reports true; otherwise it queues p, for Release to
// schedule once they are granted.
func (r *Resource) request(p *Proc, n int64) bool {
	if n <= 0 || n > r.capacity {
		panic(fmt.Sprintf("sim: %s acquires %d of %s (capacity %d)", p.name, n, r.name, r.capacity))
	}
	r.advance()
	if r.head == len(r.waiters) && r.inUse+n <= r.capacity {
		r.inUse += n
		return true
	}
	// Slide the queue down when append would otherwise grow the slice
	// and at least half of it is already-granted prefix, so a queue that
	// never empties still reuses its storage (amortised O(1)).
	if r.head > 0 && len(r.waiters) == cap(r.waiters) && r.head >= len(r.waiters)/2 {
		r.waiters = r.waiters[:copy(r.waiters, r.waiters[r.head:])]
		r.head = 0
	}
	r.waiters = append(r.waiters, waiter{p: p, n: n})
	return false
}

// Release returns n units and wakes any waiters that now fit, in FIFO
// order.
func (p *Proc) Release(r *Resource, n int64) {
	r.advance()
	r.inUse -= n
	if r.inUse < 0 {
		panic(fmt.Sprintf("sim: %s over-released %s", p.name, r.name))
	}
	for r.head < len(r.waiters) {
		w := r.waiters[r.head]
		if r.inUse+w.n > r.capacity {
			return
		}
		r.inUse += w.n
		r.head++
		r.k.schedule(r.k.now, w.p)
	}
	r.waiters, r.head = r.waiters[:0], 0
}

// Cond is a broadcast condition variable for simulated processes.
// There is no spurious wakeup beyond the usual requirement to re-check
// the predicate: Broadcast wakes exactly the processes waiting at that
// instant.
type Cond struct {
	k       *Kernel
	name    string
	waiters []*Proc
}

// NewCond creates a condition variable.
func NewCond(k *Kernel, name string) *Cond {
	return &Cond{k: k, name: name}
}

// Wait parks the process until the next Broadcast.
func (p *Proc) Wait(c *Cond) {
	c.waiters = append(c.waiters, p)
	p.park("wait ", c.name)
}

// WaitFor parks the process until pred() is true, re-checking after
// every Broadcast of c. pred is evaluated immediately first.
func (p *Proc) WaitFor(c *Cond, pred func() bool) {
	for !pred() {
		p.Wait(c)
	}
}

// Broadcast wakes all current waiters. It may be called from any
// running process (or before Run from the setup code).
func (c *Cond) Broadcast() {
	for _, p := range c.waiters {
		c.k.schedule(c.k.now, p)
	}
	c.waiters = c.waiters[:0]
}
