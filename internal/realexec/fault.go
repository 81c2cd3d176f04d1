// Attempt chains, fault injection and recovery on the wall-clock
// backend. Every map and reduce task runs as a chain of attempts — this
// file holds the one map chain and the one reduce attempt loop the
// driver has; a fault-free task is the chain that succeeds at attempt 0
// (an empty plan kills nobody, rolls no errors, sleeps for nothing).
//
// What the plan means is engine.JobFrame's (engine/task_faults.go), the
// interpretation the DES asks too: Home places each map chain, Lost
// names the outputs a node kill takes (the node dies once chunks
// 0…K-1 have completed, so its chunks below K had published), Place
// puts re-executions and restarted reducers on survivors, and Backup
// names the tasks that race a speculative twin and where. One reduce
// task's rules are engine.ReduceTask's (engine/task_reduce.go), which the
// DES embeds too: which attempts an injected failure hits, the consumed
// set an attempt resumes from, its fail point and the checkpoint chain.
// This file keeps only the wall clock's own mechanics: waiting and
// sleeping.
//
//   - a lost output is discarded as its chain returns and re-executed at
//     once; a reducer that reaches it waits (waitUnit), counting backoff
//     rounds as fetch retries, under a watchdog;
//   - injected map failures die at a byte offset through the chunk,
//     injected reduce failures once FailPoint of the map tasks are
//     folded in (a node-combined run counts every task it covers);
//   - transient shuffle-read errors are the seeded rolls of
//     engine.JobSpec.ShuffleFetchFails, slept off with capped backoff;
//   - checkpoints trigger on the attempt's virtual CPU ledger, the
//     deterministic stand-in for the DES's virtual clock;
//   - disk damage is rolled per primary map attempt, backups included,
//     from a seed folding in (chunk, attempt) (engine.JobSpec.StoreFaults);
//   - stragglers sleep a bounded real delay; every backup candidate
//     races its twin. Both attempts run to completion and the claim is
//     taken only at publish, so each attempt's ledger — and therefore
//     wastedCPU — is identical whichever side wins. What timing decides
//     is tagged races in engine.Report: under speculation
//     SpeculativeWins, ShuffleBytesByNode (it follows the winning node)
//     and IORetries (only the winner writes the map output, and the
//     twins roll different damage), under a kill FetchRetries.
//
// Everything else — what a task computes, what it publishes, what a
// reducer consumes and in what order — does not depend on the plan, so
// answers and logical counters stay bit-identical to the fault-free
// run.
package realexec

import (
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
// re-execution (it never times a primary map) before declaring the run
// wedged: the retry loop panics (task failure, isolated as usual)
// instead of deadlocking the job. A variable so tests can shorten it.
var shuffleWatchdog = 30 * time.Second

// slowSleep injects the straggler delay for tasks on a slow node.
func (r *run) slowSleep(node int) {
	factor := r.spec.Faults.SlowNodes[node]
	if factor <= 1 {
		return
	}
	time.Sleep(min(time.Duration(float64(slowTaskDelay)*(factor-1)), slowTaskDelayCap))
}

// mapChain is one map task's full attempt history: the counted winner
// plus failed and superseded attempts kept for I/O accounting.
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
// dead-node displacement, injected failures, and checkpointed
// restarts.
func (r *run) runReduceChain(ridx, node int) *reduceChain {
	ch := &reduceChain{}
	task := &engine.ReduceTask{}
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
		res := r.runReduceAttempt(task, ridx, node, attempt, inject, consumed)
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
// good checkpoint, consume the shuffle units it does not hold in
// canonical order as their slots are published, checkpoint on the
// virtual CPU ledger, and either finish (committing provisional output)
// or die at the injected fail point. The watermark is the max event
// time of the consumed prefix: after the last slot, the global maximum
// reference.RunWithWatermarks reduces under.
func (r *run) runReduceAttempt(task *engine.ReduceTask, ridx, node, attempt int, inject bool, consumed func()) (res *reduceResult) {
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
	// Resume from the newest checkpoint (no image is damaged here, so
	// none is torn or corrupt) and replay only the unconsumed suffix;
	// checkpoints are due on the attempt's CPU ledger.
	img, badBytes, _, _ := task.Resume(r.TotalMaps)
	red := task.Attempt(r.spec, rt, q, ridx, attempt, inject, &res.out, sink, r.InputBytesEst,
		img, badBytes, func() int64 { return res.ledger })
	failOut := func() *reduceResult {
		res.failed, res.span = true, span("reduce-failed")
		return res
	}
	if red.Failed() {
		return failOut()
	}
	r.slowSleep(node)

	// Every fetch is served from memory, and reducers wait for unpublished
	// and lost units (never skip), so consumption order, and with it every
	// answer, is the same under any plan and any worker count.
	hop := r.spec.Platform == engine.HOP
	for si := range r.slots {
		s := &r.slots[si]
		r.await(s.ready)
		if wm != nil {
			wm.AdvanceWatermark(s.maxTS)
		}
		for _, u := range s.units {
			if task.Holds(u.chunk) {
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
			if size > 0 {
				r.memFetches.Add(1)
			}
			if n := red.Consume(u.parts, ridx, size, mapTask, u.tasks); n > 0 {
				r.refetchBytes.Add(n)
			}
			if r.release && int(u.taken.Add(1)) == r.NumReducers {
				u.parts = core.MapParts{}
				if u == s.units[len(s.units)-1] {
					r.give() // units are consumed in order: the slot is dropped
				}
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
