// Attempt chains, fault injection and recovery on the wall-clock
// backend: the one map chain and the one reduce attempt loop the driver
// has; a fault-free task is the chain that succeeds at attempt 0.
//
// What the plan means is engine.JobFrame's (engine/task_faults.go), as
// on the DES: Home places each map chain, Lost names the outputs a node
// kill takes (the node dies once chunks 0…K-1 have completed), Place
// puts re-executions and restarted reducers on survivors, and Backup
// names the tasks that race a speculative twin. One reduce task's rules
// — which attempts an injected failure hits, what an attempt resumes
// from, its fail point, the checkpoint chain — are engine.ReduceTask's.
// This file keeps only the wall clock's own mechanics:
//
//   - a lost output is re-executed as its chain returns; a reducer that
//     reaches it waits (waitUnit), counting backoff rounds as fetch
//     retries, under a watchdog;
//   - transient shuffle-read errors are the seeded rolls of
//     engine.JobSpec.ShuffleFetchFails, slept off with capped backoff;
//   - checkpoints trigger on the attempt's virtual CPU ledger;
//   - stragglers sleep a bounded real delay, and both twins of a backup
//     race run to completion, the claim taken only at publish, so
//     wastedCPU is the same whichever wins. Timing decides only the
//     fields tagged races in engine.Report.
//
// What a task computes, publishes and consumes, and in what order, does
// not depend on the plan, so answers and logical counters do not either.
package realexec

import (
	"cmp"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/mr"
	"repro/internal/storage"
	"repro/internal/substrate"
)

const (
	// Backoff for shuffle fetches of lost units and under transient
	// errors: real sleeps, far shorter than the DES's virtual 500ms/8s.
	realFetchRetryBase = 200 * time.Microsecond
	realFetchRetryCap  = 10 * time.Millisecond

	// Straggler injection: each unit of slow factor above 1 adds this
	// much real delay per task, capped so chaos suites stay fast.
	slowTaskDelay    = 200 * time.Microsecond
	slowTaskDelayCap = 5 * time.Millisecond

	// maxShuffleTries bounds consecutive injected transient errors on
	// one fetch, unreachable in practice at ShuffleErrorRate < 1.
	maxShuffleTries = 1000
)

// shuffleWatchdog bounds how long a reducer waits for one lost unit's
// re-execution before the retry loop panics (a task failure) instead of
// deadlocking the job. A variable so tests can shorten it.
var shuffleWatchdog = 30 * time.Second

// slowSleep injects the straggler delay for tasks on a slow node.
func (r *run) slowSleep(node int) {
	factor := r.spec.Faults.SlowNodes[node]
	if factor <= 1 {
		return
	}
	time.Sleep(min(time.Duration(float64(slowTaskDelay)*(factor-1)), slowTaskDelayCap))
}

// mapChain is one map task's attempt history: the counted winner plus
// failed and superseded attempts, kept for their spans.
type mapChain struct {
	winner *mapResult
	extras []*mapResult
	reexec *mapResult // the re-execution of a winner whose output a kill lost
	err    error
}

// runMapChain drives one map task on its home node through its injected
// failure ladder and an optional speculative backup race.
func (r *run) runMapChain(chunk int) *mapChain {
	ch := &mapChain{}
	node := r.Home(chunk)
	failures := r.spec.Faults.MapFailures[chunk]

	// Speculative backup race, where the plan stages one.
	var claim *atomic.Bool
	var backupDone chan *mapResult
	if bn := r.Backup(chunk); bn >= 0 {
		claim = new(atomic.Bool)
		backupDone = make(chan *mapResult, 1)
		r.specBackups.Add(1)
		go func() {
			backupDone <- r.runMapAttempt(chunk, bn, 1, false, true, claim)
		}()
	}

	for attempt := 0; ; attempt++ {
		inject := attempt < failures
		res := r.runMapAttempt(chunk, node, attempt, inject, true, claim)
		if res.err != nil {
			ch.err = res.err
			break
		}
		if !res.failed && !res.superseded {
			ch.winner = res
			break
		}
		r.wastedCPU.Add(res.ledger)
		ch.extras = append(ch.extras, res)
		if res.superseded {
			break
		}
	}
	if backupDone != nil {
		bres := <-backupDone
		switch {
		case bres.err != nil:
			ch.err = cmp.Or(ch.err, bres.err)
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
// counting backoff rounds as fetch retries, under the watchdog.
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
		backoff = min(2*backoff, realFetchRetryCap)
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
		backoff = min(2*backoff, realFetchRetryCap)
	}
}

// reduceChain is one reduce task's attempt history.
type reduceChain struct {
	winner *reduceResult
	extras []*reduceResult
	err    error
}

// runReduceChain drives one reduce task through its restart ladder:
// dead-node displacement, injected failures, checkpointed restarts.
func (r *run) runReduceChain(ridx, node int) *reduceChain {
	ch := &reduceChain{}
	task := &engine.ReduceTask{}
	defer task.Release()
	firsts := 0 // units some attempt of the task consumed, in canonical order
	consumed := sync.OnceFunc(r.consuming.Done)
	defer consumed() // a failed task must not hold the others back
	for {
		attempt, inject, err := task.Next(r.spec.Faults.ReduceFailures[ridx], r.Dies(node))
		if err != nil {
			ch.err = fmt.Errorf("realexec: reduce task %d %w", ridx, err)
			return ch
		}
		if attempt > 0 {
			r.restartedReduces.Add(1)
		}
		if r.Dies(node) {
			// The assigned node dies during the map phase: the attempt
			// does no work and the task restarts on a survivor.
			node = r.Place(ridx, -1)
			continue
		}
		res := r.runReduceAttempt(task, ridx, node, attempt, inject, consumed, &firsts)
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

// runReduceAttempt executes one reduce attempt: resume from the newest
// good checkpoint, consume the units it does not hold in canonical order
// as their slots are published, checkpoint on the virtual CPU ledger,
// and finish or die at the injected fail point. The watermark is the
// max event time of the consumed prefix. A unit past the task's first
// *firsts is consumed for the first time (run.taken).
func (r *run) runReduceAttempt(task *engine.ReduceTask, ridx, node, attempt int, inject bool, consumed func(), firsts *int) (res *reduceResult) {
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
	defer r.addStore(st)
	rt := r.newRuntime(p, st, &res.ledger)
	q := r.newQ()
	wm, _ := q.(mr.Watermarker)
	sink := func(physBytes int64) { st.Charge(p, storage.ReduceOutput, physBytes, true) }
	// Resume from the newest checkpoint (none is damaged here) and
	// replay only the unconsumed suffix.
	img, badBytes, _, _ := task.Resume(r.TotalMaps)
	red := task.Attempt(r.spec, rt, q, ridx, attempt, inject, &res.out, sink, r.InputBytesEst,
		img, badBytes, func() int64 { return res.ledger })
	failOut := func() *reduceResult {
		engine.Abandon(st, ridx, attempt)
		res.failed, res.span = true, span("reduce-failed")
		return res
	}
	if red.Failed() {
		return failOut()
	}
	r.slowSleep(node)

	// Reducers wait for unpublished and lost units (never skip), so the
	// consumption order, and every answer, is the same under any plan.
	hop := r.spec.Platform == engine.HOP
	seen := 0
	for si := range r.slots {
		s := &r.slots[si]
		r.await(s.ready)
		if wm != nil {
			wm.AdvanceWatermark(s.maxTS)
		}
		for i, u := range s.units {
			if seen++; task.Holds(u.chunk) {
				continue // folded into the resumed image
			}
			r.waitUnit(u)
			if u.err != nil {
				panic(fmt.Errorf("map task %d re-execution failed: %v", u.chunk, u.err))
			}
			r.transientRetries(ridx, u, attempt)
			mapTask := u.chunk
			if hop {
				mapTask = -1 // a HOP push carries no task identity
			}
			size := u.partBytes[ridx]
			var parts core.MapParts
			if size > 0 {
				r.memFetches.Add(1)
				parts = u.read(ridx, ridx+1)
			}
			if n := red.Consume(parts, ridx, size, mapTask, u.tasks); n > 0 {
				r.refetchBytes.Add(n)
			}
			if seen > *firsts { // the task's first consumption of u
				*firsts = seen
				r.taken(s, i)
			}

			if red.Failed() {
				return failOut()
			}
			if red.CheckpointDue() {
				red.Checkpoint()
				r.checkpoints.Add(1)
			}
			r.afterFeed(red, sink)
		}
	}

	// Final phases wait until every reduce task consumed the shuffle or
	// failed, holding no reduce slot: the pool's peak is not timing's.
	consumed()
	<-r.tokens
	r.consuming.Wait()
	r.tokens <- struct{}{}
	red.PrepareFinal()
	res.approxKeys = red.Finish()
	res.span = span("reduce")
	return res
}
