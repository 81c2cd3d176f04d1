package sched

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/jobstore"
)

// Sentinel errors; serve maps them onto HTTP statuses the same way it
// maps the ingester's.
var (
	// ErrOverloaded sheds a submit when the org's queue is full.
	ErrOverloaded = errors.New("sched: org queue full")
	// ErrDraining refuses submits while the scheduler drains for shutdown.
	ErrDraining = errors.New("sched: draining")
	// ErrNotFound reports an unknown job id.
	ErrNotFound = errors.New("sched: no such job")
	// ErrClosed reports use after Close.
	ErrClosed = errors.New("sched: closed")
	// ErrInvalidSpec marks every refusal of JobSpec.Validate: the one
	// Submit failure that is the client's fault, not the scheduler's.
	ErrInvalidSpec = errors.New("invalid spec")
)

// Config configures Open.
type Config struct {
	// Dir is the job store directory (required).
	Dir string
	// Exec runs jobs; defaults to EngineExecutor.
	Exec Executor
	// DefaultLimits applies to orgs with no explicit limits row
	// (default: 2 concurrent, 64 queued).
	DefaultLimits Limits
	// Store tunes the embedded store (Dir is overridden by Dir above);
	// the zero value takes jobstore's defaults.
	Store jobstore.Config
	// Now is the cron clock (tests); defaults to time.Now.
	Now func() time.Time
}

func (cfg *Config) withDefaults() error {
	if cfg.Dir == "" {
		return errors.New("sched: Config.Dir is required")
	}
	if cfg.Exec == nil {
		cfg.Exec = EngineExecutor{}
	}
	cfg.DefaultLimits = cfg.DefaultLimits.withDefaults(Limits{MaxConcurrent: 2, MaxQueued: 64})
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	cfg.Store.Dir = cfg.Dir
	return nil
}

// queueEntry is one admitted, unstarted run.
type queueEntry struct {
	jobID  string
	runID  uint64
	resume *ResumeInfo
}

// RecoveryInfo reports what Open found and repaired.
type RecoveryInfo struct {
	// Jobs is the number of persisted jobs loaded.
	Jobs int `json:"jobs"`
	// RequeuedRuns were pending at the crash: admitted (acknowledged to
	// the client) but not yet started. They re-enter the queue as-is.
	RequeuedRuns int `json:"requeued_runs"`
	// ResumedRuns were mid-execution at the crash: the old run is
	// marked interrupted and a fresh attempt with Resumed=true enters
	// the queue, to be recovered through checkpointed reducer state.
	ResumedRuns int `json:"resumed_runs"`
	// Store is the embedded store's own recovery report.
	Store jobstore.RecoveryInfo `json:"store"`
}

// Metrics snapshots the scheduler counters.
type Metrics struct {
	Jobs      int              `json:"jobs"`
	Queued    int              `json:"queued"`
	Running   int              `json:"running"`
	Submitted int64            `json:"submitted"`
	Completed int64            `json:"completed"`
	Failed    int64            `json:"failed"`
	Canceled  int64            `json:"canceled"`
	Shed      int64            `json:"shed"`
	CronTicks int64            `json:"cron_ticks"`
	Recovery  RecoveryInfo     `json:"recovery"`
	Store     jobstore.Metrics `json:"store"`
	Draining  bool             `json:"draining"`
}

// Scheduler admits, queues, executes, and records jobs. All public
// methods are safe for concurrent use.
type Scheduler struct {
	cfg   Config
	store *jobstore.Store

	mu       sync.Mutex
	jobs     map[string]*Job
	queues   map[string][]queueEntry
	running  map[string]int                // org → executing runs
	cancels  map[string]context.CancelFunc // jobID → running run's cancel
	active   map[string]uint64             // jobID → running run's id
	timers   map[string]*time.Timer        // jobID → next cron fire
	limits   map[string]Limits
	draining bool
	closed   bool

	submitted, completed, failed, canceled, shed, cronTicks int64

	wg sync.WaitGroup

	// Recovery reports what Open did; immutable afterwards.
	Recovery RecoveryInfo
}

// Open recovers the job store, requeues acknowledged-but-unstarted
// runs, converts runs lost mid-execution into resume attempts, rearms
// cron schedules, and starts dispatching.
func Open(cfg Config) (*Scheduler, error) {
	if err := cfg.withDefaults(); err != nil {
		return nil, err
	}
	st, err := jobstore.Open(cfg.Store)
	if err != nil {
		return nil, err
	}
	s := &Scheduler{
		cfg:     cfg,
		store:   st,
		jobs:    make(map[string]*Job),
		queues:  make(map[string][]queueEntry),
		running: make(map[string]int),
		cancels: make(map[string]context.CancelFunc),
		active:  make(map[string]uint64),
		timers:  make(map[string]*time.Timer),
		limits:  make(map[string]Limits),
	}
	s.Recovery.Store = st.Recovery
	if err := s.recover(); err != nil {
		st.Close()
		return nil, err
	}
	s.mu.Lock()
	for org := range s.queues {
		s.dispatchLocked(org)
	}
	s.mu.Unlock()
	return s, nil
}

// recover loads persisted state and repairs interrupted work.
func (s *Scheduler) recover() error {
	var lost []Run
	err := s.store.View(func(tx *jobstore.Tx) error {
		if err := forEachJob(tx, func(j *Job) error {
			s.jobs[j.ID] = j
			return nil
		}); err != nil {
			return err
		}
		if err := forEachLimits(tx, func(org string, l Limits) {
			s.limits[org] = l.withDefaults(s.cfg.DefaultLimits)
		}); err != nil {
			return err
		}
		// One walk in admission order: each org's queue comes back in
		// the FIFO order its submits were acknowledged in.
		return forEachRun(tx, "", func(r *Run) error {
			switch r.State {
			case StatePending:
				e := queueEntry{jobID: r.JobID, runID: r.ID}
				if r.Resumed {
					e.resume = &ResumeInfo{Attempt: r.Attempt}
				}
				s.queues[r.Org] = append(s.queues[r.Org], e)
				s.Recovery.RequeuedRuns++
			case StateRunning:
				lost = append(lost, *r)
			}
			return nil
		})
	})
	if err != nil {
		return err
	}
	s.Recovery.Jobs = len(s.jobs)

	// One transaction repairs all interrupted runs: old attempts flip to
	// interrupted, fresh resume attempts are minted.
	if err := s.store.Update(func(tx *jobstore.Tx) error {
		for _, old := range lost {
			old.State = StateInterrupted
			if err := putRun(tx, &old); err != nil {
				return err
			}
			id, err := nextRunID(tx, old.Org)
			if err != nil {
				return err
			}
			next := Run{
				Org: old.Org, JobID: old.JobID, ID: id,
				Attempt: old.Attempt + 1, Resumed: true,
				State: StatePending,
			}
			if err := putRun(tx, &next); err != nil {
				return err
			}
			s.queues[old.Org] = append(s.queues[old.Org], queueEntry{
				jobID: old.JobID, runID: id,
				resume: &ResumeInfo{PrevRunID: old.ID, Attempt: next.Attempt},
			})
			s.Recovery.ResumedRuns++
		}
		return nil
	}); err != nil {
		return err
	}

	// Queued one-shot jobs with runs back in the queue stay queued;
	// recurring jobs rearm their schedules.
	for _, j := range s.jobs {
		if j.Spec.Cron != "" && !terminal(j.State) {
			s.armCronLocked(j)
		}
	}
	return nil
}

func terminal(state string) bool {
	return state == StateDone || state == StateFailed || state == StateCanceled
}

func (s *Scheduler) limitsFor(org string) Limits {
	if l, ok := s.limits[org]; ok {
		return l
	}
	return s.cfg.DefaultLimits
}

// Submit validates, persists, and queues a job. When Submit returns
// nil, the job and its first run are fsynced in the store: a crash at
// any later instant cannot lose them. Recurring jobs (Spec.Cron) are
// admitted in state active and mint runs at each schedule fire
// instead of immediately.
func (s *Scheduler) Submit(spec JobSpec) (*Job, error) {
	spec.Normalize()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	if s.draining {
		return nil, ErrDraining
	}
	lim := s.limitsFor(spec.Org)
	if len(s.queues[spec.Org]) >= lim.MaxQueued {
		s.shed++
		return nil, fmt.Errorf("%w: %d runs queued for org %s", ErrOverloaded, len(s.queues[spec.Org]), spec.Org)
	}

	job := &Job{Spec: spec, Created: s.cfg.Now().UTC().Format(time.RFC3339)}
	var firstRun *Run
	err := s.store.Update(func(tx *jobstore.Tx) error {
		id, err := nextJobID(tx)
		if err != nil {
			return err
		}
		job.ID = id
		if spec.Cron != "" {
			job.State = StateActive
			return putJob(tx, job)
		}
		job.State = StateQueued
		runID, err := nextRunID(tx, spec.Org)
		if err != nil {
			return err
		}
		firstRun = &Run{Org: spec.Org, JobID: id, ID: runID, Attempt: 1, State: StatePending}
		if err := putJob(tx, job); err != nil {
			return err
		}
		return putRun(tx, firstRun)
	})
	if err != nil {
		return nil, err
	}

	s.jobs[job.ID] = job
	s.submitted++
	if spec.Cron != "" {
		s.armCronLocked(job)
	} else {
		s.queues[spec.Org] = append(s.queues[spec.Org], queueEntry{jobID: job.ID, runID: firstRun.ID})
		s.dispatchLocked(spec.Org)
	}
	out := *job
	return &out, nil
}

// Get returns a copy of the job record.
func (s *Scheduler) Get(id string) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, ErrNotFound
	}
	out := *j
	return &out, nil
}

// List returns copies of all jobs, or only org's when org is
// non-empty, sorted by id.
func (s *Scheduler) List(org string) []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []*Job
	for _, j := range s.jobs {
		if org == "" || j.Spec.Org == org {
			c := *j
			out = append(out, &c)
		}
	}
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out
}

// Runs returns the job's run history in run-id order.
func (s *Scheduler) Runs(jobID string) ([]*Run, error) {
	s.mu.Lock()
	if _, ok := s.jobs[jobID]; !ok {
		s.mu.Unlock()
		return nil, ErrNotFound
	}
	s.mu.Unlock()
	var out []*Run
	err := s.store.View(func(tx *jobstore.Tx) error {
		return forEachRun(tx, jobID+keySep, func(r *Run) error {
			out = append(out, r)
			return nil
		})
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out, nil
}

// Cancel moves a job to canceled: queued runs cancel immediately, a
// running run's context is canceled and its result recorded as
// canceled, recurring schedules disarm. Cancel is idempotent — a
// second call (or canceling an already-terminal job) returns the
// record unchanged with no error.
func (s *Scheduler) Cancel(id string) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, ErrNotFound
	}
	if terminal(j.State) {
		out := *j
		return &out, nil
	}

	var canceledRuns []queueEntry
	q := s.queues[j.Spec.Org][:0]
	for _, e := range s.queues[j.Spec.Org] {
		if e.jobID == id {
			canceledRuns = append(canceledRuns, e)
		} else {
			q = append(q, e)
		}
	}
	s.queues[j.Spec.Org] = q

	prev := j.State
	j.State = StateCanceled
	err := s.store.Update(func(tx *jobstore.Tx) error {
		for _, e := range canceledRuns {
			if err := markRun(tx, id, e.runID, func(r *Run) {
				r.State = StateCanceled
			}); err != nil {
				return err
			}
		}
		// A running run is recorded canceled in the same transaction
		// that cancels the job, so "job terminal ⇒ runs terminal"
		// holds the moment Cancel returns; the executing goroutine's
		// later completion write leaves terminal records untouched.
		if runID, ok := s.active[id]; ok {
			if err := markRun(tx, id, runID, func(r *Run) {
				r.State = StateCanceled
			}); err != nil {
				return err
			}
		}
		return putJob(tx, j)
	})
	if err != nil {
		j.State = prev
		return nil, err
	}
	s.canceled++

	if t, ok := s.timers[id]; ok {
		t.Stop()
		delete(s.timers, id)
	}
	if cancel, ok := s.cancels[id]; ok {
		cancel() // unblocks the executing goroutine; the run record is already canceled
	}
	out := *j
	return &out, nil
}

// markRun rewrites one persisted run record through fn.
func markRun(tx *jobstore.Tx, jobID string, runID uint64, fn func(*Run)) error {
	r, err := getRun(tx, jobID, runID)
	if err != nil {
		return err
	}
	fn(r)
	return putRun(tx, r)
}

// Limits returns org's effective admission policy.
func (s *Scheduler) Limits(org string) Limits {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.limitsFor(org)
}

// SetLimits persists org's admission policy and re-dispatches under
// the new concurrency cap.
func (s *Scheduler) SetLimits(org string, l Limits) error {
	l = l.withDefaults(s.cfg.DefaultLimits)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if err := s.store.Update(func(tx *jobstore.Tx) error {
		return putLimits(tx, org, l)
	}); err != nil {
		return err
	}
	s.limits[org] = l
	s.dispatchLocked(org)
	return nil
}

// dispatchLocked starts queued runs for org while its concurrency
// limit allows. Callers hold s.mu.
func (s *Scheduler) dispatchLocked(org string) {
	if s.closed {
		return
	}
	lim := s.limitsFor(org)
	for s.running[org] < lim.MaxConcurrent && len(s.queues[org]) > 0 {
		e := s.queues[org][0]
		s.queues[org] = s.queues[org][1:]
		j, ok := s.jobs[e.jobID]
		if !ok || terminal(j.State) {
			continue
		}
		if err := s.store.Update(func(tx *jobstore.Tx) error {
			if err := markRun(tx, e.jobID, e.runID, func(r *Run) {
				r.State = StateRunning
			}); err != nil {
				return err
			}
			if j.State == StateQueued {
				j.State = StateRunning
				return putJob(tx, j)
			}
			return nil
		}); err != nil {
			// Store failure (wedged or closed): leave the run pending on
			// disk; recovery requeues it on the next boot.
			return
		}
		ctx, cancel := context.WithCancel(context.Background())
		s.cancels[e.jobID] = cancel
		s.active[e.jobID] = e.runID
		s.running[org]++
		s.wg.Add(1)
		go s.execute(ctx, cancel, j.Spec, e)
	}
}

// execute runs one admitted run to completion and records the result.
func (s *Scheduler) execute(ctx context.Context, cancel context.CancelFunc, spec JobSpec, e queueEntry) {
	defer s.wg.Done()
	defer cancel()
	rep, runErr := s.cfg.Exec.Run(ctx, spec, e.resume)

	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.cancels, e.jobID)
	delete(s.active, e.jobID)
	s.running[spec.Org]--

	j := s.jobs[e.jobID]
	state := StateDone
	errMsg := ""
	switch {
	case j != nil && j.State == StateCanceled, errors.Is(runErr, context.Canceled):
		state = StateCanceled
		rep = nil
	case runErr != nil:
		state = StateFailed
		errMsg = runErr.Error()
	default:
		rep = rep.Profile() // a run record is the job's profile, not its trace
	}

	err := s.store.Update(func(tx *jobstore.Tx) error {
		if err := markRun(tx, e.jobID, e.runID, func(r *Run) {
			// Cancel may already have recorded this run as canceled in
			// the transaction that canceled the job; a terminal record
			// is never rewritten.
			if terminal(r.State) {
				return
			}
			r.State = state
			r.Error = errMsg
			r.Report = rep
		}); err != nil {
			return err
		}
		if j == nil {
			return nil
		}
		j.Runs++
		j.LastRun = e.runID
		if !terminal(j.State) && j.Spec.Cron == "" {
			j.State = state
		}
		return putJob(tx, j)
	})
	if err != nil {
		// Wedged or closed store: the run stays "running" on disk and
		// the next boot resumes it; nothing more to do here.
		return
	}
	switch state {
	case StateDone:
		s.completed++
	case StateFailed:
		s.failed++
	case StateCanceled:
		s.canceled++
	}
	s.dispatchLocked(spec.Org)
}

// armCronLocked schedules the job's next fire. Callers hold s.mu.
func (s *Scheduler) armCronLocked(j *Job) {
	sched, err := ParseSchedule(j.Spec.Cron)
	if err != nil {
		return // validated at submit; unreachable for persisted jobs
	}
	now := s.cfg.Now()
	next := sched.Next(now)
	if next.IsZero() {
		return
	}
	id := j.ID
	s.timers[id] = time.AfterFunc(next.Sub(now), func() { s.cronFire(id) })
}

// cronFire mints and queues one run of a recurring job, then rearms.
func (s *Scheduler) cronFire(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok || s.closed || terminal(j.State) {
		return
	}
	delete(s.timers, id)
	defer s.armCronLocked(j)
	s.cronTicks++

	lim := s.limitsFor(j.Spec.Org)
	if len(s.queues[j.Spec.Org]) >= lim.MaxQueued {
		s.shed++ // skip this fire rather than queue without bound
		return
	}
	var run *Run
	err := s.store.Update(func(tx *jobstore.Tx) error {
		runID, err := nextRunID(tx, j.Spec.Org)
		if err != nil {
			return err
		}
		run = &Run{Org: j.Spec.Org, JobID: id, ID: runID, Attempt: 1, State: StatePending}
		return putRun(tx, run)
	})
	if err != nil {
		return
	}
	s.queues[j.Spec.Org] = append(s.queues[j.Spec.Org], queueEntry{jobID: id, runID: run.ID})
	s.dispatchLocked(j.Spec.Org)
}

// Drain stops admitting new submits (ErrDraining), disarms cron
// schedules, and waits — up to ctx — for queued and running work to
// finish. It does not close the store; call Close after.
func (s *Scheduler) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	for id, t := range s.timers {
		t.Stop()
		delete(s.timers, id)
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close cancels running work, waits for it to unwind, and closes the
// store cleanly. For a graceful shutdown call Drain first.
func (s *Scheduler) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for id, t := range s.timers {
		t.Stop()
		delete(s.timers, id)
	}
	for _, cancel := range s.cancels {
		cancel()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return s.store.Close()
}

// Abort simulates the scheduler process dying (tests): the store is
// cut down as by kill -9 and nothing is waited for.
func (s *Scheduler) Abort() {
	s.mu.Lock()
	s.closed = true
	for id, t := range s.timers {
		t.Stop()
		delete(s.timers, id)
	}
	s.mu.Unlock()
	s.store.Abort()
}

// Metrics snapshots the counters.
func (s *Scheduler) Metrics() Metrics {
	s.mu.Lock()
	queued := 0
	for _, q := range s.queues {
		queued += len(q)
	}
	running := 0
	for _, n := range s.running {
		running += n
	}
	m := Metrics{
		Jobs:      len(s.jobs),
		Queued:    queued,
		Running:   running,
		Submitted: s.submitted,
		Completed: s.completed,
		Failed:    s.failed,
		Canceled:  s.canceled,
		Shed:      s.shed,
		CronTicks: s.cronTicks,
		Recovery:  s.Recovery,
		Draining:  s.draining,
	}
	s.mu.Unlock()
	m.Store = s.store.Metrics()
	return m
}
