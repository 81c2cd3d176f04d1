package sched

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
)

// stubExec is an instrumented executor: it records concurrency per
// org (for the limit invariant), resume hand-offs, and can gate or
// fail runs on demand.
type stubExec struct {
	mu        sync.Mutex
	cur, peak map[string]int
	resumes   []ResumeInfo
	order     []string      // spec.Name of every run, in start order
	gate      chan struct{} // non-nil: runs block until the gate closes
	started   chan string   // non-nil: receives org as each run starts
	delay     time.Duration
	failFor   map[string]error // query → error
}

func newStub() *stubExec {
	return &stubExec{cur: map[string]int{}, peak: map[string]int{}}
}

func (e *stubExec) Run(ctx context.Context, spec JobSpec, resume *ResumeInfo) (*engine.Report, error) {
	e.mu.Lock()
	e.cur[spec.Org]++
	if e.cur[spec.Org] > e.peak[spec.Org] {
		e.peak[spec.Org] = e.cur[spec.Org]
	}
	if resume != nil {
		e.resumes = append(e.resumes, *resume)
	}
	e.order = append(e.order, spec.Name)
	gate, started, delay := e.gate, e.started, e.delay
	failErr := e.failFor[spec.Query]
	e.mu.Unlock()
	defer func() {
		e.mu.Lock()
		e.cur[spec.Org]--
		e.mu.Unlock()
	}()

	if started != nil {
		started <- spec.Org
	}
	if gate != nil {
		select {
		case <-gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if delay > 0 {
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if failErr != nil {
		return nil, failErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return &engine.Report{Query: spec.Query, Platform: spec.Platform, OutputRecords: 1}, nil
}

func (e *stubExec) peakFor(org string) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.peak[org]
}

func testSpec(org string) JobSpec {
	return JobSpec{Org: org, User: "u1", Query: "clickcount", Nodes: 3, Reducers: 2}
}

// waitState polls until the job reaches want, or fails the test.
func waitState(t *testing.T, s *Scheduler, id, want string) *Job {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		j, err := s.Get(id)
		if err != nil {
			t.Fatalf("get %s: %v", id, err)
		}
		if j.State == want {
			return j
		}
		time.Sleep(time.Millisecond)
	}
	j, _ := s.Get(id)
	t.Fatalf("job %s stuck in %q, want %q", id, j.State, want)
	return nil
}

func TestSubmitRunsToCompletion(t *testing.T) {
	stub := newStub()
	s, err := Open(Config{Dir: t.TempDir(), Exec: stub})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	j, err := s.Submit(testSpec("acme"))
	if err != nil {
		t.Fatal(err)
	}
	if j.ID == "" || j.State == "" {
		t.Fatalf("submit returned incomplete job: %+v", j)
	}
	waitState(t, s, j.ID, StateDone)
	runs, err := s.Runs(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 {
		t.Fatalf("runs = %d, want 1", len(runs))
	}
	r := runs[0]
	if r.State != StateDone || r.Attempt != 1 || r.Resumed || r.Report == nil {
		t.Fatalf("run record %+v", r)
	}
	if r.Report.Query != "clickcount" {
		t.Fatalf("report query %q", r.Report.Query)
	}
	if got, _ := s.Get(j.ID); got.Runs != 1 || got.LastRun != r.ID {
		t.Fatalf("job bookkeeping %+v", got)
	}
}

func TestPerOrgConcurrencyLimit(t *testing.T) {
	stub := newStub()
	stub.gate = make(chan struct{})
	stub.started = make(chan string, 16)
	s, err := Open(Config{Dir: t.TempDir(), Exec: stub,
		DefaultLimits: Limits{MaxConcurrent: 2, MaxQueued: 16}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var ids []string
	for i := 0; i < 5; i++ {
		j, err := s.Submit(testSpec("acme"))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}
	// Exactly two runs may start while the gate holds.
	<-stub.started
	<-stub.started
	select {
	case org := <-stub.started:
		t.Fatalf("third run for %s started past MaxConcurrent=2", org)
	case <-time.After(50 * time.Millisecond):
	}
	m := s.Metrics()
	if m.Running != 2 || m.Queued != 3 {
		t.Fatalf("running=%d queued=%d, want 2/3", m.Running, m.Queued)
	}
	close(stub.gate)
	for range ids[2:] {
		<-stub.started
	}
	for _, id := range ids {
		waitState(t, s, id, StateDone)
	}
	if p := stub.peakFor("acme"); p > 2 {
		t.Fatalf("peak concurrency %d exceeded limit 2", p)
	}
}

func TestLimitsAreIndependentPerOrg(t *testing.T) {
	stub := newStub()
	stub.gate = make(chan struct{})
	stub.started = make(chan string, 16)
	s, err := Open(Config{Dir: t.TempDir(), Exec: stub,
		DefaultLimits: Limits{MaxConcurrent: 1, MaxQueued: 16}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.SetLimits("big", Limits{MaxConcurrent: 3, MaxQueued: 16}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := s.Submit(testSpec("big")); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Submit(testSpec("small")); err != nil {
			t.Fatal(err)
		}
	}
	counts := map[string]int{}
	for i := 0; i < 4; i++ {
		counts[<-stub.started]++
	}
	if counts["big"] != 3 || counts["small"] != 1 {
		t.Fatalf("started %v, want big=3 small=1", counts)
	}
	close(stub.gate)
	if got := s.Limits("big"); got.MaxConcurrent != 3 {
		t.Fatalf("Limits(big) = %+v", got)
	}
	if got := s.Limits("absent"); got.MaxConcurrent != 1 {
		t.Fatalf("Limits(absent) = %+v, want default", got)
	}
}

func TestRunIDsStrictlyMonotonicPerOrg(t *testing.T) {
	stub := newStub()
	s, err := Open(Config{Dir: t.TempDir(), Exec: stub})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	orgs := []string{"a", "b"}
	jobsByOrg := map[string][]string{}
	for i := 0; i < 6; i++ {
		org := orgs[i%2]
		j, err := s.Submit(testSpec(org))
		if err != nil {
			t.Fatal(err)
		}
		jobsByOrg[org] = append(jobsByOrg[org], j.ID)
	}
	for _, org := range orgs {
		var idsSeen []uint64
		for _, jid := range jobsByOrg[org] {
			waitState(t, s, jid, StateDone)
			runs, err := s.Runs(jid)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range runs {
				idsSeen = append(idsSeen, r.ID)
			}
		}
		// Submit order is the mint order within one org, so ids must be
		// exactly 1..n in submission sequence.
		for i, id := range idsSeen {
			if id != uint64(i+1) {
				t.Fatalf("org %s run ids %v: want strictly monotonic 1..%d", org, idsSeen, len(idsSeen))
			}
		}
	}
}

func TestCancelQueuedAndRunningIsIdempotent(t *testing.T) {
	stub := newStub()
	stub.gate = make(chan struct{})
	stub.started = make(chan string, 16)
	s, err := Open(Config{Dir: t.TempDir(), Exec: stub,
		DefaultLimits: Limits{MaxConcurrent: 1, MaxQueued: 16}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	running, err := s.Submit(testSpec("acme"))
	if err != nil {
		t.Fatal(err)
	}
	queued, err := s.Submit(testSpec("acme"))
	if err != nil {
		t.Fatal(err)
	}
	<-stub.started

	// Cancel the queued job: immediate, no execution.
	j1, err := s.Cancel(queued.ID)
	if err != nil || j1.State != StateCanceled {
		t.Fatalf("cancel queued: %+v, %v", j1, err)
	}
	j2, err := s.Cancel(queued.ID)
	if err != nil || j2.State != StateCanceled {
		t.Fatalf("second cancel not idempotent: %+v, %v", j2, err)
	}
	runs, _ := s.Runs(queued.ID)
	if len(runs) != 1 || runs[0].State != StateCanceled {
		t.Fatalf("queued job's run record %+v", runs)
	}

	// Cancel the running job: its context aborts the executor and the
	// run records canceled.
	if _, err := s.Cancel(running.ID); err != nil {
		t.Fatal(err)
	}
	waitState(t, s, running.ID, StateCanceled)
	deadline := time.Now().Add(5 * time.Second)
	for {
		runs, _ = s.Runs(running.ID)
		if len(runs) == 1 && runs[0].State == StateCanceled {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("running job's run record %+v", runs)
		}
		time.Sleep(time.Millisecond)
	}
	if runs[0].Report != nil {
		t.Fatalf("canceled run kept a report: %+v", runs[0])
	}
	if _, err := s.Cancel("j999999"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("cancel unknown: %v, want ErrNotFound", err)
	}
	close(stub.gate)
}

func TestFailedRunRecordsError(t *testing.T) {
	stub := newStub()
	stub.failFor = map[string]error{"pagefreq": errors.New("synthetic failure")}
	s, err := Open(Config{Dir: t.TempDir(), Exec: stub})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	spec := testSpec("acme")
	spec.Query = "pagefreq"
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, j.ID, StateFailed)
	runs, _ := s.Runs(j.ID)
	if len(runs) != 1 || runs[0].State != StateFailed || runs[0].Error == "" {
		t.Fatalf("failed run record %+v", runs[0])
	}
}

func TestOverloadSheds(t *testing.T) {
	stub := newStub()
	stub.gate = make(chan struct{})
	s, err := Open(Config{Dir: t.TempDir(), Exec: stub,
		DefaultLimits: Limits{MaxConcurrent: 1, MaxQueued: 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// One runs, two queue, the fourth sheds.
	for i := 0; i < 3; i++ {
		if _, err := s.Submit(testSpec("acme")); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if _, err := s.Submit(testSpec("acme")); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("submit past MaxQueued: %v, want ErrOverloaded", err)
	}
	// Another org is unaffected.
	if _, err := s.Submit(testSpec("other")); err != nil {
		t.Fatalf("other org shed too: %v", err)
	}
	if m := s.Metrics(); m.Shed != 1 {
		t.Fatalf("Shed = %d, want 1", m.Shed)
	}
	close(stub.gate)
}

func TestDrainRefusesSubmitsAndFinishesWork(t *testing.T) {
	stub := newStub()
	stub.delay = 20 * time.Millisecond
	s, err := Open(Config{Dir: t.TempDir(), Exec: stub})
	if err != nil {
		t.Fatal(err)
	}
	j, err := s.Submit(testSpec("acme"))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if _, err := s.Submit(testSpec("acme")); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit while draining: %v, want ErrDraining", err)
	}
	// The admitted run finished during the drain.
	if got, _ := s.Get(j.ID); got.State != StateDone {
		t.Fatalf("admitted job state %q after drain, want done", got.State)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestRestartRequeuesPendingAndResumesRunning(t *testing.T) {
	dir := t.TempDir()
	stub := newStub()
	stub.gate = make(chan struct{})
	stub.started = make(chan string, 16)
	s, err := Open(Config{Dir: dir, Exec: stub,
		DefaultLimits: Limits{MaxConcurrent: 1, MaxQueued: 16}})
	if err != nil {
		t.Fatal(err)
	}
	runningJob, err := s.Submit(testSpec("acme"))
	if err != nil {
		t.Fatal(err)
	}
	queuedJob, err := s.Submit(testSpec("acme"))
	if err != nil {
		t.Fatal(err)
	}
	<-stub.started // first run is mid-execution
	s.Abort()      // process dies

	stub2 := newStub()
	s2, err := Open(Config{Dir: dir, Exec: stub2,
		DefaultLimits: Limits{MaxConcurrent: 1, MaxQueued: 16}})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Recovery.ResumedRuns != 1 || s2.Recovery.RequeuedRuns != 1 {
		t.Fatalf("recovery %+v, want 1 resumed + 1 requeued", s2.Recovery)
	}

	// The interrupted run resumes (executor told to recover), the
	// acknowledged-but-unstarted one just runs; nothing is lost.
	waitState(t, s2, runningJob.ID, StateDone)
	waitState(t, s2, queuedJob.ID, StateDone)

	runs, err := s2.Runs(runningJob.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 {
		t.Fatalf("interrupted job has %d runs, want interrupted + resumed", len(runs))
	}
	if runs[0].State != StateInterrupted {
		t.Fatalf("first run state %q, want interrupted", runs[0].State)
	}
	if !runs[1].Resumed || runs[1].Attempt != 2 || runs[1].State != StateDone {
		t.Fatalf("resume attempt %+v", runs[1])
	}
	if runs[1].ID <= runs[0].ID {
		t.Fatalf("resume run id %d not monotonic past %d", runs[1].ID, runs[0].ID)
	}
	stub2.mu.Lock()
	resumes := append([]ResumeInfo(nil), stub2.resumes...)
	stub2.mu.Unlock()
	if len(resumes) != 1 || resumes[0].PrevRunID != runs[0].ID || resumes[0].Attempt != 2 {
		t.Fatalf("executor resume hand-off %+v", resumes)
	}
}

// TestRestartKeepsAdmissionOrder pins the FIFO order acknowledged before
// a crash as the order after it: recovery walks the runs in the order
// they were persisted, not job by job in map order. With one run at a
// time, the pending runs execute in submission order; the run the crash
// caught mid-execution re-enters behind them as a resume attempt.
func TestRestartKeepsAdmissionOrder(t *testing.T) {
	dir := t.TempDir()
	limits := Limits{MaxConcurrent: 1, MaxQueued: 16}
	stub := newStub()
	stub.gate = make(chan struct{})
	defer close(stub.gate) // releases the run the dead scheduler left blocked
	stub.started = make(chan string, 1)
	s, err := Open(Config{Dir: dir, Exec: stub, DefaultLimits: limits})
	if err != nil {
		t.Fatal(err)
	}
	var names, ids []string
	for i := 0; i < 10; i++ {
		spec := testSpec("acme")
		spec.Name = fmt.Sprintf("job-%02d", i)
		j, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		names, ids = append(names, spec.Name), append(ids, j.ID)
	}
	<-stub.started // job-00 is mid-execution, the other nine are pending
	s.Abort()

	stub2 := newStub()
	s2, err := Open(Config{Dir: dir, Exec: stub2, DefaultLimits: limits})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for _, id := range ids {
		waitState(t, s2, id, StateDone)
	}
	stub2.mu.Lock()
	got := append([]string(nil), stub2.order...)
	stub2.mu.Unlock()
	if want := append(names[1:], names[0]); !reflect.DeepEqual(got, want) {
		t.Fatalf("execution order after restart\n got %v\nwant %v", got, want)
	}
}

func TestCronJobRecurs(t *testing.T) {
	stub := newStub()
	s, err := Open(Config{Dir: t.TempDir(), Exec: stub})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	spec := testSpec("acme")
	spec.Cron = "@every 30ms"
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if j.State != StateActive {
		t.Fatalf("recurring job state %q, want active", j.State)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		runs, err := s.Runs(j.ID)
		if err != nil {
			t.Fatal(err)
		}
		doneRuns := 0
		for _, r := range runs {
			if r.State == StateDone {
				doneRuns++
			}
		}
		if doneRuns >= 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d completed runs after deadline", doneRuns)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Cancel disarms the schedule; the run count stops growing.
	if _, err := s.Cancel(j.ID); err != nil {
		t.Fatal(err)
	}
	runsAt, _ := s.Runs(j.ID)
	time.Sleep(100 * time.Millisecond)
	runsAfter, _ := s.Runs(j.ID)
	if len(runsAfter) > len(runsAt)+1 { // one in-flight fire may land
		t.Fatalf("cron kept minting after cancel: %d → %d runs", len(runsAt), len(runsAfter))
	}
}

func TestCronSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	stub := newStub()
	s, err := Open(Config{Dir: dir, Exec: stub})
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec("acme")
	spec.Cron = "@every 30ms"
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	s.Abort()

	s2, err := Open(Config{Dir: dir, Exec: newStub()})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	before, _ := s2.Runs(j.ID)
	deadline := time.Now().Add(5 * time.Second)
	for {
		runs, _ := s2.Runs(j.ID)
		if len(runs) > len(before) {
			break // schedule rearmed after restart
		}
		if time.Now().After(deadline) {
			t.Fatal("recurring job never fired after restart")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestSubmitValidation(t *testing.T) {
	s, err := Open(Config{Dir: t.TempDir(), Exec: newStub()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	cases := []JobSpec{
		{Query: "clickcount"},                          // no org
		{Org: "a", Query: "nope"},                      // bad query
		{Org: "a", Query: "clickcount", Platform: "x"}, // bad platform
		{Org: "a", Query: "clickcount", Backend: "x"},  // bad backend
		{Org: "a", Query: "clickcount", Scale: "x"},    // bad scale
		{Org: "a", Query: "clickcount", Cron: "x"},     // bad cron
	}
	for i, spec := range cases {
		if _, err := s.Submit(spec); !errors.Is(err, ErrInvalidSpec) {
			t.Errorf("case %d: invalid spec %+v: err = %v, want ErrInvalidSpec", i, spec, err)
		}
	}
	if m := s.Metrics(); m.Submitted != 0 {
		t.Fatalf("invalid submits counted: %+v", m)
	}
}

func TestMetricsShape(t *testing.T) {
	s, err := Open(Config{Dir: t.TempDir(), Exec: newStub()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	j, err := s.Submit(testSpec("acme"))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, j.ID, StateDone)
	m := s.Metrics()
	if m.Submitted != 1 || m.Completed != 1 || m.Jobs != 1 {
		t.Fatalf("metrics %+v", m)
	}
	if m.Store.NextTx < 2 {
		t.Fatalf("store metrics missing: %+v", m.Store)
	}
}

func TestListByOrg(t *testing.T) {
	s, err := Open(Config{Dir: t.TempDir(), Exec: newStub()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 4; i++ {
		org := "a"
		if i%2 == 1 {
			org = "b"
		}
		if _, err := s.Submit(testSpec(org)); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(s.List("a")); got != 2 {
		t.Fatalf("List(a) = %d jobs, want 2", got)
	}
	if got := len(s.List("")); got != 4 {
		t.Fatalf("List() = %d jobs, want 4", got)
	}
	all := s.List("")
	for i := 1; i < len(all); i++ {
		if all[i-1].ID >= all[i].ID {
			t.Fatalf("List not sorted: %s before %s", all[i-1].ID, all[i].ID)
		}
	}
}
