// Package substrate defines the execution-substrate interface the
// platform components (internal/core, internal/sortmerge,
// internal/merge, internal/storage) are written against: who supplies
// time, a place for pure compute to overlap its own charge, and metered
// device occupancy for a running task.
//
// Two substrates implement it:
//
//   - the discrete-event simulation (internal/sim): Proc is a simulated
//     process whose clock is virtual, Timer is a FIFO-queued sim
//     resource, and a Use call parks the process for the charged
//     duration — the backend every experiment and golden report runs
//     on;
//   - the wall-clock backend (this package's WallProc/WallTimer, driven
//     by internal/realexec): Proc is a plain goroutine whose clock is
//     the host's, and a Use call merely accumulates the charged
//     duration as a busy integral — the virtual cost is carried as
//     accounting while the real work takes whatever time it takes.
//
// Platform code cannot tell the two apart, which is the point: the
// map/shuffle/merge/reduce paths run identically on both, and the
// simfuzz differential harness holds their answers bit-for-bit equal.
package substrate

import (
	"sync/atomic"
	"time"
)

// Proc is one running task's execution context: a clock (Now, Hold)
// plus Offload, the one way platform code reaches the compute pool. The
// whole contract of pooled work is that fn never touches the process.
// *sim.Proc implements it for the DES; WallProc for real execution.
type Proc interface {
	// Now returns the task clock in nanoseconds — virtual time on the
	// DES, wall time since run start on the real backend.
	Now() int64

	// Hold spends d of task time: the DES parks the process; the real
	// backend does nothing (real work already takes real time, and the
	// fault-free paths the real backend runs never sleep).
	Hold(d time.Duration)

	// Offload runs the pure compute fn and, in effect after it, charge:
	// the task-time price of fn, computed from sizes known before fn
	// runs. The DES overlaps the two, so fn must not touch the process
	// or anything charge does. Both are done when it returns or panics.
	Offload(fn, charge func())
}

// Timer is a metered device a task occupies for a charged duration —
// a disk arm, a NIC. The DES implements it as a capacity-1 FIFO
// resource (Use parks the caller); the wall-clock backend as a plain
// busy-time accumulator. BusyIntegral is ∫ unitsInUse dt in
// unit-nanoseconds, the basis of the utilization metrics.
type Timer interface {
	Use(p Proc, tokens int64, d time.Duration)
	BusyIntegral() int64
}

// WallProc is the real-execution Proc: a goroutine with a wall clock.
// Pure compute runs inline — parallelism on the real backend comes
// from running many tasks on goroutines, not from inside one task,
// which keeps every per-task result independent of the worker count.
type WallProc struct {
	start time.Time
}

// NewWallProc returns a wall-clock Proc whose Now() counts from start.
func NewWallProc(start time.Time) *WallProc { return &WallProc{start: start} }

// Now implements Proc: nanoseconds of wall time since run start.
func (p *WallProc) Now() int64 { return int64(time.Since(p.start)) }

// Hold implements Proc as a no-op: charged virtual durations are
// accounting, not sleep, on the real backend.
func (p *WallProc) Hold(time.Duration) {}

// Offload implements Proc inline: compute, then account for it.
func (p *WallProc) Offload(fn, charge func()) {
	fn()
	charge()
}

// WallTimer is the real-execution Timer: it accumulates charged
// durations atomically (tasks on different goroutines share a node's
// devices) without delaying the caller. The integral carries the cost
// model's virtual charge, so device-pressure accounting survives the
// move off the DES even though nothing actually queues.
type WallTimer struct {
	busy atomic.Int64
}

// NewWallTimer returns a zeroed accumulator.
func NewWallTimer() *WallTimer { return &WallTimer{} }

// Use implements Timer: accumulate tokens·d without blocking.
func (t *WallTimer) Use(_ Proc, tokens int64, d time.Duration) {
	t.busy.Add(tokens * int64(d))
}

// BusyIntegral implements Timer.
func (t *WallTimer) BusyIntegral() int64 { return t.busy.Load() }
