// Attempt chains, fault injection and recovery on the wall-clock
// backend. Every map and reduce task runs as a chain of attempts — this
// file holds the one map chain and the one reduce attempt loop the
// driver has; a fault-free task is the chain that succeeds at attempt 0
// (an empty plan kills nobody, rolls no errors, sleeps for nothing).
//
// A wall clock cannot reproduce a schedule of instants
// deterministically, so every trigger is anchored to job structure —
// the same triggers the DES runs, interpreted here without its clock:
//
//   - node kills fire at a map-progress point: with K
//     (engine.JobFrame.KillAfter), a node is dead once the first K
//     chunks (canonical chunk order) are done — the set of outputs lost
//     to the crash is a pure function of the spec, not of scheduling;
//   - injected map failures die at a byte offset through the chunk,
//     injected reduce failures after a fixed number of consumed
//     shuffle units (the DES's own FailPoint semantics);
//   - transient shuffle-read errors are the seeded rolls of
//     engine.JobSpec.ShuffleFetchFails, so retry counts for pure
//     transient plans are deterministic;
//   - checkpoints trigger on the attempt's virtual CPU ledger, the
//     deterministic stand-in for the DES's virtual clock;
//   - disk damage is rolled per map attempt before the barrier, from a
//     seed folding in (chunk, attempt) (engine.JobSpec.StoreFaults),
//     so IORetries and CorruptFramesDetected are deterministic;
//   - speculative backups are structural: every map task on a live
//     straggler node races one backup on a healthy peer. Both
//     attempts run to completion and the claim is taken only at
//     publish, so each attempt's ledger — and therefore wastedCPU —
//     is identical whichever side wins; only SpeculativeWins, the
//     per-node shuffle attribution (ShuffleBytesByNode follows the
//     winning node), and FetchRetries under kills remain
//     timing-dependent.
//
// Everything else — what a task computes, what it publishes, what a
// reducer consumes and in what order — does not depend on the plan, so
// answers and logical counters stay bit-identical to the fault-free
// run.
package realexec

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/mr"
	"repro/internal/substrate"
)

const (
	// Wall-clock backoff for shuffle fetches: lost units awaiting
	// re-execution and injected transient errors. Far shorter than the
	// DES's virtual 500ms/8s — these are real sleeps.
	realFetchRetryBase = 200 * time.Microsecond
	realFetchRetryCap  = 10 * time.Millisecond

	// Straggler injection: each unit of slow factor above 1 adds this
	// much real delay per task, capped so chaos suites stay fast.
	slowTaskDelay    = 200 * time.Microsecond
	slowTaskDelayCap = 5 * time.Millisecond

	// maxShuffleTries bounds consecutive injected transient errors on
	// one fetch; with ShuffleErrorRate < 1 this is unreachable in
	// practice.
	maxShuffleTries = 1000
)

// shuffleWatchdog bounds how long a reducer waits for one lost unit's
// re-execution before declaring the run wedged: the retry loop panics
// (task failure, isolated as usual) instead of deadlocking the job.
// A variable so tests can shorten the stall.
var shuffleWatchdog = 30 * time.Second

// faults interprets the job's fault plan for the wall-clock backend.
type faults struct {
	spec   *engine.JobSpec
	nodes  int
	killAt map[int]int // node → chunk count K after which it is dead (engine.JobFrame.KillAfter)
}

func newFaults(spec *engine.JobSpec, killAt map[int]int) *faults {
	return &faults{spec: spec, nodes: spec.Cluster.Nodes, killAt: killAt}
}

// dies reports whether the node is killed at some point in the run.
func (f *faults) dies(node int) bool { _, ok := f.killAt[node]; return ok }

// lostAfterMap reports whether chunk's output, published on node, is
// lost when the node dies: the first K chunks in canonical order
// completed before the crash, so their outputs existed and vanish.
func (f *faults) lostAfterMap(chunk, node int) bool {
	k, ok := f.killAt[node]
	return ok && chunk < k
}

// displaced reports whether the attempt for chunk would start on node
// only after the node died — no work is lost, the task just runs on a
// survivor instead.
func (f *faults) displaced(chunk, node int) bool {
	k, ok := f.killAt[node]
	return ok && chunk >= k
}

// survivor returns the first node after n in ring order that never
// dies. Validation guarantees at least one survivor exists.
func (f *faults) survivor(n int) int {
	for i := 1; i <= f.nodes; i++ {
		c := (n + i) % f.nodes
		if !f.dies(c) {
			return c
		}
	}
	return n
}

// backupFor returns the node a speculative backup of chunk races on
// when its primary runs on node, or -1 when the task runs unraced:
// every task on a live straggler races one backup on the next node that
// never dies. Tasks with injected failures are excluded (their ladder
// length must stay deterministic), and so are tasks on dying nodes (the
// lost-output set must stay a pure function of the spec).
func (f *faults) backupFor(chunk, node int) int {
	sp := &f.spec.Faults
	if !sp.Speculate || sp.MapFailures[chunk] > 0 || f.dies(node) || sp.SlowNodes[node] <= 1 {
		return -1
	}
	for i := 1; i < f.nodes; i++ {
		if c := (node + i) % f.nodes; !f.dies(c) {
			return c
		}
	}
	return -1
}

// slowSleep injects the straggler delay for tasks on a slow node.
func (f *faults) slowSleep(node int) {
	factor := f.spec.Faults.SlowNodes[node]
	if factor <= 1 {
		return
	}
	d := time.Duration(float64(slowTaskDelay) * (factor - 1))
	if d > slowTaskDelayCap {
		d = slowTaskDelayCap
	}
	time.Sleep(d)
}

// mapChain is one map task's full attempt history: the counted winner
// plus failed and superseded attempts kept for I/O accounting.
type mapChain struct {
	winner *mapResult
	extras []*mapResult
	err    error
}

// runMapChain drives one map task through displacement, its injected
// failure ladder, and an optional speculative backup race.
func (r *run) runMapChain(chunk, node int) *mapChain {
	f := r.flt
	ch := &mapChain{}
	if f.displaced(chunk, node) {
		node = f.survivor(node)
	}
	failures := r.spec.Faults.MapFailures[chunk]

	// Speculative backup race, where the plan stages one.
	var claim *atomic.Bool
	var backupDone chan *mapResult
	if bn := f.backupFor(chunk, node); bn >= 0 {
		claim = new(atomic.Bool)
		backupDone = make(chan *mapResult, 1)
		r.specBackups.Add(1)
		go func() {
			backupDone <- r.runMapAttempt(chunk, bn, 1, false, claim)
		}()
	}

	for attempt := 0; ; attempt++ {
		inject := attempt < failures
		res := r.runMapAttempt(chunk, node, attempt, inject, claim)
		if res.err != nil {
			ch.err = res.err
			break
		}
		if res.failed {
			r.wastedCPU.Add(res.ledger)
			ch.extras = append(ch.extras, res)
			continue
		}
		if res.superseded {
			r.wastedCPU.Add(res.ledger)
			ch.extras = append(ch.extras, res)
			break
		}
		ch.winner = res
		break
	}
	if backupDone != nil {
		bres := <-backupDone
		switch {
		case bres.err != nil:
			if ch.err == nil {
				ch.err = bres.err
			}
		case bres.superseded:
			r.wastedCPU.Add(bres.ledger)
			ch.extras = append(ch.extras, bres)
		case ch.winner == nil && ch.err == nil:
			r.specWins.Add(1)
			ch.winner = bres
		default:
			// Claim discipline guarantees exactly one publisher.
			ch.extras = append(ch.extras, bres)
		}
	}
	if ch.winner == nil && ch.err == nil {
		ch.err = fmt.Errorf("realexec: map task %d finished with no published attempt", chunk)
	}
	return ch
}

// waitUnit blocks until a lost unit's re-execution republishes it,
// counting backoff rounds as fetch retries, with a watchdog so a stuck
// recovery surfaces as a task error instead of a hung job.
func (r *run) waitUnit(u *unit) {
	if u.ready == nil {
		return
	}
	select {
	case <-u.ready:
		return
	default:
	}
	backoff := realFetchRetryBase
	deadline := time.Now().Add(shuffleWatchdog)
	for {
		r.fetchRetries.Add(1)
		select {
		case <-u.ready:
			return
		case <-time.After(backoff):
		}
		if time.Now().After(deadline) {
			panic(fmt.Errorf("shuffle fetch of map %d output stalled for %v awaiting re-execution", u.chunk, shuffleWatchdog))
		}
		if backoff *= 2; backoff > realFetchRetryCap {
			backoff = realFetchRetryCap
		}
	}
}

// transientRetries burns the seeded transient-error rolls for one
// fetch, sleeping a capped exponential backoff per error.
func (r *run) transientRetries(ridx int, u *unit, attempt int) {
	backoff := realFetchRetryBase
	for try := 0; r.spec.ShuffleFetchFails(ridx, u.chunk, u.seq, attempt, try); try++ {
		if try >= maxShuffleTries {
			panic(fmt.Errorf("shuffle fetch of map %d output exhausted %d transient-error retries", u.chunk, maxShuffleTries))
		}
		r.fetchRetries.Add(1)
		time.Sleep(backoff)
		if backoff *= 2; backoff > realFetchRetryCap {
			backoff = realFetchRetryCap
		}
	}
}

// rtask is one reduce task's cross-attempt recovery state. The
// checkpoint is logically replicated off-node; reduce attempts run
// after the map barrier, where no disk damage is injected, so only the
// newest image is kept.
type rtask struct {
	ckpt        *engine.Checkpoint
	everFetched []bool
}

// reduceChain is one reduce task's attempt history.
type reduceChain struct {
	winner *reduceResult
	extras []*reduceResult
	err    error
}

// runReduceChain drives one reduce task through its restart ladder:
// dead-node displacement, injected failures, and checkpointed
// restarts.
func (r *run) runReduceChain(ridx, node int) *reduceChain {
	f := r.flt
	ch := &reduceChain{}
	task := &rtask{}
	failures := r.spec.Faults.ReduceFailures[ridx]
	live := 0
	for attempt := 0; ; attempt++ {
		if attempt >= engine.MaxReduceAttempts {
			ch.err = fmt.Errorf("realexec: reduce task %d exceeded %d attempts", ridx, engine.MaxReduceAttempts)
			return ch
		}
		if attempt > 0 {
			r.restartedReduces.Add(1)
		}
		if f.dies(node) {
			// The assigned node died during the map phase: the attempt
			// does no work and the task restarts on a survivor.
			node = f.survivor(node)
			continue
		}
		// Injection counts live attempts: a zero-work displacement off a
		// dead node does not consume one of the planned failures.
		inject := live < failures
		live++
		res := r.runReduceAttempt(task, ridx, node, attempt, inject)
		if res.err != nil {
			ch.err = res.err
			return ch
		}
		if res.failed {
			r.wastedCPU.Add(res.ledger)
			ch.extras = append(ch.extras, res)
			continue
		}
		ch.winner = res
		return ch
	}
}

// runReduceAttempt executes one reduce attempt: restore from the
// newest checkpoint, consume the unconsumed suffix of the cached shuffle
// units in fixed order through the platform reducer, checkpoint on the
// virtual CPU ledger, and either finish (committing provisional output)
// or die at the injected fail point. The map barrier has already
// advanced the watermark to the global maximum, exactly the horizon
// reference.RunWithWatermarks reduces under.
func (r *run) runReduceAttempt(task *rtask, ridx, node, attempt int, inject bool) (res *reduceResult) {
	res = &reduceResult{}
	defer func() {
		if rec := recover(); rec != nil {
			res.err = fmt.Errorf("realexec: reduce task %d attempt %d: %v", ridx, attempt, rec)
		}
	}()
	p := substrate.NewWallProc(r.start)
	taskStart := p.Now()
	// Attempt 0 is named by the task; retries carry their attempt number.
	span := func(kind string) engine.Span {
		name := fmt.Sprintf("reduce%03d", ridx)
		if attempt > 0 {
			name = fmt.Sprintf("%s.a%d", name, attempt)
		}
		return engine.Span{Name: name, Kind: kind, Node: node,
			Start: time.Duration(taskStart), End: time.Duration(p.Now())}
	}
	st := r.newStore(node)
	res.store = st
	rt := r.newRuntime(p, st, &res.ledger)
	q := r.newQ()
	if wm, ok := q.(mr.Watermarker); ok && r.hasWM {
		wm.AdvanceWatermark(r.globalWM)
	}
	sink := func(physBytes int64) { st.ChargeOutputWrite(p, physBytes) }
	// Output is provisional under any plan that can kill an attempt
	// after it emitted.
	out := engine.NewOutputWriter(r.spec, r.spec.ReduceRestarts(), &res.out, sink)
	red := engine.NewTaskReducer(r.spec, rt, q, out, fmt.Sprintf("r%03d.a%d", ridx, attempt), r.InputBytesEst)

	// Resume from the newest checkpoint and replay only the unconsumed
	// suffix.
	consumed := make([]bool, len(r.units))
	consumedN := 0
	if ck := task.ckpt; ck != nil {
		img, err := ck.Decode()
		if err != nil {
			panic(fmt.Errorf("checkpoint for reduce task %d failed verification: %w", ridx, err))
		}
		red.Restore(ck, img)
		copy(consumed, ck.Consumed)
		consumedN = ck.ConsumedN
	}

	failN := r.spec.Faults.ReduceFailAfter(len(r.units))
	failOut := func() *reduceResult {
		res.failed = true
		out.Discard()
		res.span = span("reduce-failed")
		return res
	}
	if inject && consumedN >= failN {
		return failOut()
	}

	r.flt.slowSleep(node)
	ckptEvery := int64(r.spec.CheckpointEvery)
	lastCkpt := res.ledger

	// Shuffle loop over the unconsumed suffix of the cached units, in
	// fixed order. Every fetch is served from memory, and reducers wait
	// for lost units (never skip), so consumption order, and with it
	// every answer, is the same under any plan and any worker count.
	for ui, u := range r.units {
		if consumed[ui] {
			continue
		}
		r.waitUnit(u)
		if u.err != nil {
			panic(fmt.Errorf("map task %d re-execution failed: %v", u.chunk, u.err))
		}
		r.transientRetries(ridx, u, attempt)
		if size := u.partBytes[ridx]; size > 0 {
			r.memFetches.Add(1)
			if task.everFetched == nil {
				task.everFetched = make([]bool, len(r.units))
			}
			if task.everFetched[ui] {
				r.refetchBytes.Add(size)
			} else {
				task.everFetched[ui] = true
			}
			red.Feed(u.parts, ridx, size, u.chunk)
		}
		consumed[ui] = true
		consumedN++

		if inject && consumedN >= failN {
			return failOut()
		}
		if red.Incremental() && ckptEvery > 0 && res.ledger-lastCkpt >= ckptEvery {
			task.ckpt = red.TakeCheckpoint(task.ckpt, consumed, consumedN)
			r.checkpoints.Add(1)
			lastCkpt = res.ledger
		}
		r.afterFeed(red, sink)
	}

	red.PrepareFinal()
	res.approxKeys = red.Finish()
	out.Commit()
	out.Flush()
	res.span = span("reduce")
	return res
}
