package engine

import (
	"fmt"
	"time"

	"repro/internal/cost"
	"repro/internal/sim"
	"repro/internal/storage"
)

// node is one simulated machine: CPU cores, task slots, a NIC, storage
// devices, the slot cache of recently completed map outputs, and the
// write-behind queue for job output (small reduce-output appends are
// buffered by the OS and drained asynchronously, so emitting early
// answers does not stall a reducer behind large map I/Os).
type node struct {
	idx         int
	cpu         *sim.Resource
	mapSlots    *sim.Resource
	reduceSlots *sim.Resource
	nic         *sim.Resource
	store       *storage.Store

	cache    []*mapOutput
	cacheCap int

	wbPending int64
	wbClosed  bool
	wbCond    *sim.Cond
	wbDrained *sim.Cond

	// deadAt is the virtual time at which the node crashes (-1: never).
	// Any task touching the node's CPU at or after that instant aborts.
	deadAt int64
	// declaredDead is set by the failure detector once HeartbeatTimeout
	// has elapsed past deadAt; only then are the node's tasks reassigned
	// and its map outputs invalidated.
	declaredDead bool
	// slow > 1 stretches every CPU charge on this node (the CPU half of
	// a straggler; the store's SlowFactor is the disk half).
	slow float64
}

// nodeAborted is thrown (via panic) out of a task attempt running on a
// node that has crashed. Attempt runners recover it and record the
// attempt as lost; it must never escape an attempt.
type nodeAborted struct{ node int }

func newNode(k *sim.Kernel, idx int, cfg ClusterConfig, scratch *storage.Scratch) *node {
	n := &node{
		idx:         idx,
		cpu:         sim.NewResource(k, fmt.Sprintf("n%d.cpu", idx), int64(cfg.Cores)),
		mapSlots:    sim.NewResource(k, fmt.Sprintf("n%d.mslots", idx), int64(cfg.MapSlots)),
		reduceSlots: sim.NewResource(k, fmt.Sprintf("n%d.rslots", idx), int64(cfg.ReduceSlots)),
		nic:         sim.NewResource(k, fmt.Sprintf("n%d.nic", idx), 1),
		store:       storage.NewStore(k, idx, cfg.Model, scratch),
		cacheCap:    cfg.SlotCache,
		deadAt:      -1,
	}
	if cfg.SSDIntermediate {
		n.store.Intermediate = cost.SSD
	}
	n.store.Checksums = cfg.Checksums
	n.wbCond = sim.NewCond(k, fmt.Sprintf("n%d.writeback", idx))
	n.wbDrained = sim.NewCond(k, fmt.Sprintf("n%d.drained", idx))
	k.Spawn(fmt.Sprintf("n%d.writer", idx), func(p *sim.Proc) { n.writeBehind(p) })
	return n
}

// writeBehind drains queued output bytes to the HDD in batched
// requests. It exits when the job closes the queue and it is empty.
func (n *node) writeBehind(p *sim.Proc) {
	for {
		p.WaitFor(n.wbCond, func() bool { return n.wbPending > 0 || n.wbClosed })
		if n.wbPending == 0 {
			if n.wbClosed {
				return
			}
			continue
		}
		take := n.wbPending
		n.wbPending = 0
		n.store.Charge(p, storage.ReduceOutput, take, true)
		if n.wbPending == 0 {
			n.wbDrained.Broadcast()
		}
	}
}

// enqueueOutput queues physBytes of job output for write-behind.
func (n *node) enqueueOutput(physBytes int64) {
	if physBytes <= 0 {
		return
	}
	n.wbPending += physBytes
	n.wbCond.Broadcast()
}

// syncOutput blocks until the node's output queue is drained (the
// reduce task's final commit).
func (n *node) syncOutput(p *sim.Proc) {
	p.WaitFor(n.wbDrained, func() bool { return n.wbPending == 0 })
}

// closeOutput tells the writer no more output is coming.
func (n *node) closeOutput() {
	n.wbClosed = true
	n.wbCond.Broadcast()
}

// dead reports whether the node has crashed as of virtual time now.
func (n *node) dead(now int64) bool { return n.deadAt >= 0 && now >= n.deadAt }

// chargeCPU occupies one core for d and adds it to the ledger. On a
// crashed node it aborts the calling attempt instead.
func (n *node) chargeCPU(p *sim.Proc, d time.Duration, ledger *int64) {
	if n.dead(p.Now()) {
		panic(nodeAborted{n.idx})
	}
	if d <= 0 {
		return
	}
	if n.slow > 1 {
		d = time.Duration(float64(d) * n.slow)
	}
	n.cpu.Use(p, 1, d)
	*ledger += int64(d)
	if n.dead(p.Now()) {
		panic(nodeAborted{n.idx})
	}
}

// cacheAdd registers a freshly completed map output in the slot cache,
// evicting the oldest beyond capacity (its future fetches hit disk).
func (n *node) cacheAdd(o *mapOutput) {
	o.inMemory = true
	n.cache = append(n.cache, o)
	if len(n.cache) > n.cacheCap {
		n.cache[0].inMemory = false
		n.cache = n.cache[1:]
	}
}
