package engine

import (
	"fmt"
	"sort"

	"repro/internal/sim"
	"repro/internal/storage"
)

// mapTaskState is the tracker's view of one map task across all of its
// attempts (original, injected-failure retries, speculative backups,
// and post-loss re-executions).
type mapTaskState struct {
	task      int
	done      bool       // a surviving attempt has published output
	completed bool       // an attempt has completed once (JobFrame.Lost's prefix)
	output    *mapOutput // the winning output (nil while re-executing)

	attempts int   // attempt ids handed out (shared by all procs of this task)
	running  int   // attempts currently executing, or queued for a slot
	since    int64 // start time of the current primary attempt
	backups  int   // speculative backups launched
	reexecs  int   // re-executions after output loss
}

// reduceState is the tracker's view of one reduce task: the shared
// cross-attempt state and the node its current attempt runs on.
type reduceState struct {
	ReduceTask
	ridx int
	node *node // node of the current attempt
	done bool
}

// tracker is the JobTracker: the per-task attempt state every map and
// reduce task runs its attempt chain on, and the failure-handling half
// — a heartbeat-driven failure detector that declares crashed nodes
// dead, invalidates their stored map outputs, re-executes
// lost-but-needed map tasks on survivors, and launches speculative
// backups for map stragglers. Where each of those runs, and which tasks
// may be backed up at all, is the frame's (task_faults.go); the tracker
// decides only when. The state tables exist on every run (a
// fault-free task is the chain that succeeds at attempt 0); the
// detector daemon only ticks when the fault plan calls for it, so clean
// runs' event sequences carry no heartbeat.
type tracker struct {
	j       *job
	cond    *sim.Cond
	mstates []mapTaskState // value slices: one allocation each, never regrown
	rstates []reduceState
	mapDurs []int64 // completed map-attempt durations (speculation baseline)
}

func newTracker(j *job) *tracker {
	t := &tracker{j: j, cond: sim.NewCond(j.k, "tracker")}
	t.mstates = make([]mapTaskState, j.TotalMaps)
	for i := range t.mstates {
		// Every primary opens attempt 0 at t = 0 (engine.Run), queued or not.
		t.mstates[i] = mapTaskState{task: i, attempts: 1, running: 1}
	}
	t.rstates = make([]reduceState, j.NumReducers)
	for i := range t.rstates {
		t.rstates[i].ridx = i
	}
	return t
}

// run is the heartbeat loop. Each tick it (1) declares dead any node
// that has been silent longer than HeartbeatTimeout and recovers its
// work, and (2) checks for map stragglers to back up.
func (t *tracker) run(p *sim.Proc) {
	f := &t.j.spec.Faults
	for {
		p.Hold(f.HeartbeatInterval)
		now := p.Now()
		for _, n := range t.j.nodes {
			if n.dead(now) && !n.declaredDead && now-n.deadAt >= int64(f.HeartbeatTimeout) {
				t.declare(n)
			}
		}
		if f.Speculate {
			t.speculate(now)
		}
	}
}

// declare marks a crashed node dead: its map outputs become
// unfetchable, reducers that were running there will restart elsewhere
// (their attempts abort on their own; the broadcasts wake any that are
// parked), and completed-but-lost map tasks still needed by some
// reducer are re-executed on survivors.
func (t *tracker) declare(n *node) {
	n.declaredDead = true
	t.j.nodesLost++
	if t.j.spec.Faults.Disk.TornWrites {
		t.tearCheckpoints(n)
	}
	lost := t.j.shuffle.markLost(n.idx)
	for _, o := range lost {
		if o.task < 0 {
			continue
		}
		ms := &t.mstates[o.task]
		if !ms.done || ms.output != o {
			continue // superseded already, or still being recomputed
		}
		if !t.needed(o.task) {
			continue // every reducer (post-restart) already consumed it
		}
		t.reexec(ms)
	}
	t.cond.Broadcast()
}

// tearCheckpoints truncates the latest checkpoint image of every
// reducer that was running on the crashed node: the replication
// pipeline was cut mid-flight, so the newest image's tail never made
// it out. The cut length is drawn deterministically from the fault
// seed; any truncation fails the frame's exact-span CRC check, so
// restore detects it and falls back to the previous good image.
func (t *tracker) tearCheckpoints(n *node) {
	seed := t.j.spec.diskSeed()
	for i := range t.rstates {
		rs := &t.rstates[i]
		if rs.done || rs.node != n || rs.ckpt == nil || rs.ckpt.torn {
			continue
		}
		ck := rs.ckpt
		if len(ck.framed) < 2 {
			continue
		}
		cut := 1 + int64(storage.Hash64(seed, int64(n.idx), int64(rs.ridx), 6)%uint64(len(ck.framed)-1))
		ck.framed = ck.framed[:cut]
		ck.torn = true
	}
}

// corruptOutput invalidates a map output whose shuffle payload failed
// checksum verification even after a re-fetch: the stored frame is
// damaged on the mapper's disk, so the output is marked lost and the
// task re-executed on a live node — a fresh publication serves every
// reducer that still needs it (deterministic replay makes it
// byte-identical to the damaged original's clean bytes).
func (t *tracker) corruptOutput(o *mapOutput) {
	if o.lost {
		return // another reducer already reported it
	}
	o.lost = true
	t.j.shuffle.cond.Broadcast()
	if o.task < 0 {
		return
	}
	ms := &t.mstates[o.task]
	if !ms.done || ms.output != o {
		return // superseded already, or still being recomputed
	}
	t.reexec(ms)
}

// needed reports whether any reducer still has to fetch the given map
// task's output, evaluating reducers on dead nodes at their
// last-checkpoint consumed-set (that is where they will restart from).
func (t *tracker) needed(task int) bool {
	now := t.j.k.Now()
	for i := range t.rstates {
		rs := &t.rstates[i]
		if rs.done {
			continue
		}
		if rs.node != nil && rs.node.dead(now) {
			if rs.ckpt == nil || !rs.ckpt.consumed[task] {
				return true
			}
			continue
		}
		if !rs.Holds(task) {
			return true
		}
	}
	return false
}

// reexec schedules a fresh execution of a completed map task whose
// output was lost: the task leaves the done set (map progress and the
// shuffle completion count roll back) and a new process runs it on a
// surviving node.
func (t *tracker) reexec(ms *mapTaskState) {
	ms.done = false
	ms.output = nil
	t.j.reexecMaps++
	t.j.mapsDone--
	t.j.shuffle.mappersDone--
	n := t.j.nodes[t.j.Place(ms.task, -1)]
	idx := ms.reexecs
	ms.reexecs++
	t.j.k.Spawn(fmt.Sprintf("map%06d.r%d", ms.task, idx), func(p *sim.Proc) {
		t.j.runMapTask(p, ms.task, n, false, false)
	})
}

// ensureAvailable re-requests any lost map outputs a restarting reduce
// attempt still needs. It closes the window where a loss was judged
// not-needed at declaration time (everyone had consumed it) but a later
// attempt failure rolled a reducer's consumed-set back past it.
func (t *tracker) ensureAvailable(rs *reduceState) {
	for task := range t.mstates {
		if rs.Holds(task) {
			continue
		}
		if ms := &t.mstates[task]; ms.done && ms.output != nil && ms.output.lost {
			t.reexec(ms)
		}
	}
}

// speculativeFactor is the straggler threshold: a multiple of the
// median completed map-attempt duration.
const speculativeFactor = 2

// speculate launches backup attempts for map stragglers: tasks with a
// backup node (JobFrame.Backup) whose current attempt has been running
// longer than speculativeFactor times the median completed-attempt
// duration, once enough attempts have completed to estimate that median.
func (t *tracker) speculate(now int64) {
	minSamples := t.j.TotalMaps / 4
	if minSamples < 3 {
		minSamples = 3
	}
	if len(t.mapDurs) < minSamples {
		return
	}
	durs := append([]int64(nil), t.mapDurs...)
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	median := durs[len(durs)/2]
	threshold := speculativeFactor * median
	for i := range t.mstates {
		ms := &t.mstates[i]
		if ms.done || ms.backups > 0 || ms.running == 0 {
			continue
		}
		if now-ms.since <= threshold {
			continue
		}
		b := t.j.Backup(ms.task)
		if b < 0 {
			continue
		}
		n := t.j.nodes[b]
		ms.backups++
		t.j.specBackups++
		task := ms.task
		t.j.k.Spawn(fmt.Sprintf("map%06d.b%d", task, ms.backups), func(p *sim.Proc) {
			t.j.runMapTask(p, task, n, true, false)
		})
	}
}
