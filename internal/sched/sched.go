package sched

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/budget"
	"repro/internal/seglog"
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
	// Dir is the job log directory (required).
	Dir string
	// Exec runs jobs; defaults to EngineExecutor. If it is a Predictor
	// too, a run starts only when its predicted peak fits Budget.
	Exec Executor
	// Budget is the byte budget runs are admitted on, shared with the
	// ingester (default: unlimited).
	Budget *budget.Budget
	// DefaultLimits applies to orgs with no explicit limits row
	// (default: 2 concurrent, 64 queued).
	DefaultLimits Limits
	// Now is the cron clock (tests); defaults to time.Now.
	Now func() time.Time
	// Fail injects crash faults into the job log (tests only).
	Fail *seglog.Failpoints

	// The job log's seal size, compaction interval and image retention
	// are sealBytes, compactEvery and retainImages; tests shrink them.
	sealBytes, compactEvery int64
	retain                  int
}

func (cfg *Config) withDefaults() error {
	if cfg.Dir == "" {
		return errors.New("sched: Config.Dir is required")
	}
	if cfg.Exec == nil {
		cfg.Exec = EngineExecutor{}
	}
	if cfg.Budget == nil {
		cfg.Budget = budget.New(budget.NoLimit)
	}
	cfg.DefaultLimits = cfg.DefaultLimits.withDefaults(Limits{MaxConcurrent: 2, MaxQueued: 64})
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.sealBytes == 0 {
		cfg.sealBytes = sealBytes
	}
	if cfg.compactEvery == 0 {
		cfg.compactEvery = compactEvery
	}
	if cfg.retain == 0 {
		cfg.retain = retainImages
	}
	return nil
}

// queueEntry is one admitted, unstarted run.
type queueEntry struct {
	org    string
	jobID  string
	runID  uint64
	resume *ResumeInfo
	bytes  int64 // predicted peak heap (Predictor)
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
	// Store is the job log's own recovery report.
	Store StoreRecovery `json:"store"`
}

// Metrics snapshots the scheduler counters.
type Metrics struct {
	Jobs      int          `json:"jobs"`
	Queued    int          `json:"queued"`
	Running   int          `json:"running"`
	Submitted int64        `json:"submitted"`
	Completed int64        `json:"completed"`
	Failed    int64        `json:"failed"`
	Canceled  int64        `json:"canceled"`
	Shed      int64        `json:"shed"`
	CronTicks int64        `json:"cron_ticks"`
	Recovery  RecoveryInfo `json:"recovery"`
	Store     StoreMetrics `json:"store"`
	Draining  bool         `json:"draining"`

	// The byte budget: its size, the running runs' predicted peaks, the
	// soft memory limit derived from them (0: none), and the queued runs
	// their orgs' limits would start but the budget holds back.
	BudgetBytes    int64 `json:"budget_bytes"`
	ReservedBytes  int64 `json:"reserved_bytes"`
	SoftLimitBytes int64 `json:"soft_limit_bytes"`
	WaitingRuns    int   `json:"waiting_runs"`
}

// Scheduler admits, queues, executes, and records jobs. All public
// methods are safe for concurrent use.
type Scheduler struct {
	cfg Config

	mu sync.Mutex
	// The persisted state (see log.go): written only by apply, after
	// the record that carries it is durable.
	log    *seglog.Log
	jobs   map[string]*Job
	runs   map[string][]*Run // jobID → runs in id order
	limits map[string]Limits
	jobSeq uint64            // largest job number written
	runSeq map[string]uint64 // org → largest run id written

	queue    []queueEntry                  // every org's unstarted runs, in submission order
	waiting  int                           // queued runs the budget holds back (dispatchLocked)
	running  map[string]int                // org → executing runs
	cancels  map[string]context.CancelFunc // jobID → running run's cancel
	active   map[string]uint64             // jobID → running run's id
	timers   map[string]*time.Timer        // jobID → next cron fire
	draining bool
	closed   bool

	submitted, completed, failed, canceled, shed, cronTicks int64

	wg sync.WaitGroup

	// Recovery reports what Open did; immutable afterwards.
	Recovery RecoveryInfo
}

// Open recovers the job log, requeues acknowledged-but-unstarted runs,
// converts runs lost mid-execution into resume attempts, rearms cron
// schedules, and starts dispatching.
func Open(cfg Config) (*Scheduler, error) {
	s, err := load(cfg)
	if err != nil {
		return nil, err
	}
	if err := s.start(); err != nil {
		s.log.Close()
		return nil, err
	}
	return s, nil
}

// start repairs the recovered state and begins work; see Open.
func (s *Scheduler) start() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.Recovery.Jobs = len(s.jobs)
	var lost []*Run
	for _, rs := range s.runs {
		for _, r := range rs {
			switch r.State {
			case StatePending:
				e := queueEntry{org: r.Org, jobID: r.JobID, runID: r.ID}
				if r.Resumed {
					e.resume = &ResumeInfo{Attempt: r.Attempt}
				}
				s.queue = append(s.queue, e)
				s.Recovery.RequeuedRuns++
			case StateRunning:
				lost = append(lost, r)
			}
		}
	}
	// Each org's run ids were minted in the FIFO order its submits were
	// acknowledged in, so that order is the ids'; across orgs the order
	// the submits came in is not kept, and orgs requeue by name.
	slices.SortFunc(s.queue, func(a, b queueEntry) int {
		return cmp.Or(cmp.Compare(a.org, b.org), cmp.Compare(a.runID, b.runID))
	})

	// One record repairs all interrupted runs: old attempts flip to
	// interrupted, fresh resume attempts are minted behind the queue.
	if len(lost) > 0 {
		slices.SortFunc(lost, func(a, b *Run) int {
			return cmp.Or(cmp.Compare(a.Org, b.Org), cmp.Compare(a.ID, b.ID))
		})
		repair := &rows{}
		minted := map[string]uint64{}
		for _, old := range lost {
			minted[old.Org]++
			repair.Runs = append(repair.Runs, s.runIn(old.JobID, old.ID, StateInterrupted), &Run{
				Org: old.Org, JobID: old.JobID, ID: s.runSeq[old.Org] + minted[old.Org],
				Attempt: old.Attempt + 1, Resumed: true, State: StatePending,
			})
		}
		if err := s.commit(repair); err != nil {
			return err
		}
		for i := 0; i < len(repair.Runs); i += 2 {
			old, next := repair.Runs[i], repair.Runs[i+1]
			s.queue = append(s.queue, queueEntry{
				org: old.Org, jobID: old.JobID, runID: next.ID,
				resume: &ResumeInfo{PrevRunID: old.ID, Attempt: next.Attempt},
			})
		}
		s.Recovery.ResumedRuns = len(lost)
	}

	// Queued one-shot jobs with runs back in the queue stay queued;
	// recurring jobs rearm their schedules.
	for _, j := range s.jobs {
		if j.Spec.Cron != "" && !terminal(j.State) {
			s.armCronLocked(j)
		}
	}
	for i := range s.queue {
		s.queue[i].bytes = s.predict(s.queue[i])
	}
	s.dispatchLocked()
	return nil
}

func terminal(state string) bool {
	return state == StateDone || state == StateFailed || state == StateCanceled
}

// queued counts org's unstarted runs.
func (s *Scheduler) queued(org string) int {
	n := 0
	for _, e := range s.queue {
		if e.org == org {
			n++
		}
	}
	return n
}

// predict is the executor's prediction of the run's peak heap.
func (s *Scheduler) predict(e queueEntry) int64 {
	if p, ok := s.cfg.Exec.(Predictor); ok {
		return p.Predict(s.jobs[e.jobID].Spec, e.resume)
	}
	return 0
}

// enqueue queues a run behind every queued run and dispatches.
func (s *Scheduler) enqueue(org, jobID string, runID uint64) {
	e := queueEntry{org: org, jobID: jobID, runID: runID}
	e.bytes = s.predict(e)
	s.queue = append(s.queue, e)
	s.dispatchLocked()
}

func (s *Scheduler) limitsFor(org string) Limits {
	if l, ok := s.limits[org]; ok {
		return l
	}
	return s.cfg.DefaultLimits
}

// Submit validates, persists, and queues a job. When Submit returns
// nil, the job and its first run are fsynced in the job log: a crash at
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
	if n := s.queued(spec.Org); n >= s.limitsFor(spec.Org).MaxQueued {
		s.shed++
		return nil, fmt.Errorf("%w: %d runs queued for org %s", ErrOverloaded, n, spec.Org)
	}

	job := &Job{ID: jobID(s.jobSeq + 1), Spec: spec, State: StateActive, Created: s.cfg.Now().UTC().Format(time.RFC3339)}
	admit := &rows{Jobs: []*Job{job}}
	if spec.Cron == "" {
		job.State = StateQueued
		admit.Runs = []*Run{{Org: spec.Org, JobID: job.ID, ID: s.runSeq[spec.Org] + 1, Attempt: 1, State: StatePending}}
	}
	if err := s.commit(admit); err != nil {
		return nil, err
	}
	s.submitted++
	if spec.Cron != "" {
		s.armCronLocked(job)
	} else {
		s.enqueue(spec.Org, job.ID, admit.Runs[0].ID)
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

// Runs returns copies of the job's run history in run-id order.
func (s *Scheduler) Runs(jobID string) ([]*Run, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.jobs[jobID]; !ok {
		return nil, ErrNotFound
	}
	var out []*Run
	for _, r := range s.runs[jobID] {
		out = append(out, r.clone())
	}
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
	if s.closed {
		return nil, ErrClosed
	}

	// A running run is recorded canceled in the same record that
	// cancels the job, so "job terminal ⇒ runs terminal" holds the
	// moment Cancel returns; the executing goroutine's later completion
	// write leaves terminal records untouched.
	canceled := *j
	canceled.State = StateCanceled
	rec := &rows{Jobs: []*Job{&canceled}}
	for _, e := range s.queue {
		if e.jobID == id {
			rec.Runs = append(rec.Runs, s.runIn(id, e.runID, StateCanceled))
		}
	}
	if runID, ok := s.active[id]; ok {
		rec.Runs = append(rec.Runs, s.runIn(id, runID, StateCanceled))
	}
	if err := s.commit(rec); err != nil {
		return nil, err
	}
	s.queue = slices.DeleteFunc(s.queue, func(e queueEntry) bool { return e.jobID == id })
	s.canceled++
	s.dispatchLocked() // a run the budget held back may have been the canceled one

	if t, ok := s.timers[id]; ok {
		t.Stop()
		delete(s.timers, id)
	}
	if cancel, ok := s.cancels[id]; ok {
		cancel() // unblocks the executing goroutine; the run record is already canceled
	}
	out := canceled
	return &out, nil
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
	if err := s.commit(&rows{Limits: map[string]Limits{org: l}}); err != nil {
		return err
	}
	s.dispatchLocked()
	return nil
}

// dispatchLocked starts queued runs in submission order across orgs,
// each while its org's concurrency limit allows and its predicted peak
// fits the budget. The first run the budget holds back holds back every
// later one too, so no later run takes the bytes it waits for; a run of
// an org at its limit holds back nothing. Callers hold s.mu.
func (s *Scheduler) dispatchLocked() {
	if s.closed {
		return
	}
	kept, held, wedged := s.queue[:0], false, false
	s.waiting = 0
	for _, e := range s.queue {
		j := s.jobs[e.jobID]
		if terminal(j.State) {
			continue
		}
		if wedged || s.running[e.org] >= s.limitsFor(e.org).MaxConcurrent {
			kept = append(kept, e)
			continue
		}
		if held = held || !s.cfg.Budget.Reserve(e.bytes); held {
			s.waiting++
			kept = append(kept, e)
			continue
		}
		start := &rows{Runs: []*Run{s.runIn(e.jobID, e.runID, StateRunning)}}
		if j.State == StateQueued {
			running := *j
			running.State = StateRunning
			start.Jobs = []*Job{&running}
		}
		if err := s.commit(start); err != nil {
			// Wedged log: the run stays pending on disk and queued in
			// memory; the next boot requeues it.
			s.cfg.Budget.Release(e.bytes)
			wedged = true
			kept = append(kept, e)
			continue
		}
		ctx, cancel := context.WithCancel(context.Background())
		s.cancels[e.jobID] = cancel
		s.active[e.jobID] = e.runID
		s.running[e.org]++
		s.wg.Add(1)
		go s.execute(ctx, cancel, j.Spec, e)
	}
	clear(s.queue[len(kept):])
	s.queue = kept
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
	s.cfg.Budget.Release(e.bytes)

	j := *s.jobs[e.jobID]
	state := StateDone
	errMsg := ""
	switch {
	case j.State == StateCanceled, errors.Is(runErr, context.Canceled):
		state = StateCanceled
		rep = nil
	case runErr != nil:
		state = StateFailed
		errMsg = runErr.Error()
	default:
		rep = rep.Profile() // a run record is the job's profile, not its trace
	}

	j.Runs++
	j.LastRun = e.runID
	if !terminal(j.State) && j.Spec.Cron == "" {
		j.State = state
	}
	finish := &rows{Jobs: []*Job{&j}}
	// Cancel may already have recorded this run as canceled in the
	// record that canceled the job; a terminal record is never
	// rewritten.
	if r := s.run(e.jobID, e.runID); !terminal(r.State) {
		done := *r
		done.State, done.Error, done.Report = state, errMsg, rep
		finish.Runs = []*Run{&done}
	}
	if err := s.commit(finish); err != nil {
		// Wedged log: the run stays "running" on disk and the next
		// boot resumes it; nothing more to do here.
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
	s.dispatchLocked()
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
// A fire whose timer went off before Drain or Close took s.mu does
// nothing: Drain has disarmed every schedule and waits for running
// work only.
func (s *Scheduler) cronFire(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok || s.closed || s.draining || terminal(j.State) {
		return
	}
	delete(s.timers, id)
	defer s.armCronLocked(j)
	s.cronTicks++

	org := j.Spec.Org
	if s.queued(org) >= s.limitsFor(org).MaxQueued {
		s.shed++ // skip this fire rather than queue without bound
		return
	}
	run := &Run{Org: org, JobID: id, ID: s.runSeq[org] + 1, Attempt: 1, State: StatePending}
	if err := s.commit(&rows{Runs: []*Run{run}}); err != nil {
		return
	}
	s.enqueue(org, id, run.ID)
}

// Drain stops admitting new submits (ErrDraining), disarms cron
// schedules, and waits — up to ctx — for queued and running work to
// finish. It does not close the job log; call Close after.
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

// Close cancels running work, waits for it to unwind, writes an image
// of the state when records happened since the last one (so a clean
// restart replays nothing) and closes the job log. For a graceful
// shutdown call Drain first.
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
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sinceImage() > 0 {
		s.compact() // a failure wedges the log; Close reports it
	}
	return s.log.Close()
}

// Abort simulates the scheduler process dying (tests): the job log is
// cut down as by kill -9 and nothing is waited for.
func (s *Scheduler) Abort() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	for id, t := range s.timers {
		t.Stop()
		delete(s.timers, id)
	}
	s.log.Abort()
}

// Metrics snapshots the counters.
func (s *Scheduler) Metrics() Metrics {
	s.mu.Lock()
	defer s.mu.Unlock()
	running := 0
	for _, n := range s.running {
		running += n
	}
	st := s.log.Stats()
	m := Metrics{
		Jobs:      len(s.jobs),
		Queued:    len(s.queue),
		Running:   running,
		Submitted: s.submitted,
		Completed: s.completed,
		Failed:    s.failed,
		Canceled:  s.canceled,
		Shed:      s.shed,
		CronTicks: s.cronTicks,
		Recovery:  s.Recovery,
		Store: StoreMetrics{
			Commits:          st.NextID - 1 - st.LastImage,
			NextTx:           st.NextID,
			LogSyncs:         st.Syncs,
			LogAppendedBytes: st.AppendedBytes,
			Snapshots:        st.Images,
			SnapshotBytes:    st.ImageBytes,
		},
		Draining:    s.draining,
		WaitingRuns: s.waiting,
	}
	b := s.cfg.Budget.Snapshot()
	m.BudgetBytes, m.ReservedBytes, m.SoftLimitBytes = b.Budget, b.Reserved, b.SoftLimit
	if err := s.log.Err(); err != nil {
		m.Store.Wedged = err.Error()
	}
	return m
}
