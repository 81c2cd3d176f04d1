package sched

import (
	"slices"
	"testing"
	"time"

	"repro/internal/budget"
)

// predictStub is stubExec with a stated peak per job name.
type predictStub struct {
	*stubExec
	peak map[string]int64
}

func (p predictStub) Predict(spec JobSpec, _ *ResumeInfo) int64 { return p.peak[spec.Name] }

// budgetSched opens a scheduler whose runs block until canceled, with a
// 100-byte budget and room for four concurrent runs per org.
func budgetSched(t *testing.T, peak map[string]int64) (*Scheduler, *stubExec) {
	t.Helper()
	stub := newStub()
	stub.gate = make(chan struct{})
	s, err := Open(Config{Dir: t.TempDir(), Exec: predictStub{stub, peak}, Budget: budget.New(100),
		DefaultLimits: Limits{MaxConcurrent: 4, MaxQueued: 8}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, stub
}

func submitNamed(t *testing.T, s *Scheduler, org, name string) string {
	t.Helper()
	spec := testSpec(org)
	spec.Name = name
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("submit %s: %v", name, err)
	}
	return j.ID
}

// waitStarted polls until the runs started so far are want, in any
// order: runs that start together race to their first line.
func waitStarted(t *testing.T, stub *stubExec, want ...string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		stub.mu.Lock()
		got := slices.Sorted(slices.Values(stub.order))
		stub.mu.Unlock()
		if slices.Equal(got, slices.Sorted(slices.Values(want))) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("started %q, want %q", got, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBudgetHoldsLaterRunsBehindAWaitingOne: runs start in submission
// order across orgs while their predictions fit. The first that does not
// fit waits, queued and not shed, and holds back a later, smaller run of
// another org that would fit; when a run of one org ends, the waiting
// runs of every org start.
func TestBudgetHoldsLaterRunsBehindAWaitingOne(t *testing.T) {
	s, stub := budgetSched(t, map[string]int64{"a": 60, "b": 60, "c": 10})
	a := submitNamed(t, s, "acme", "a")
	submitNamed(t, s, "globex", "b")
	submitNamed(t, s, "acme", "c")
	waitStarted(t, stub, "a")
	m := s.Metrics()
	if m.Queued != 2 || m.WaitingRuns != 2 || m.Shed != 0 || m.ReservedBytes != 60 || m.BudgetBytes != 100 {
		t.Fatalf("with a running: %+v", m)
	}
	if _, err := s.Cancel(a); err != nil {
		t.Fatal(err)
	}
	waitStarted(t, stub, "a", "b", "c")
	if m := s.Metrics(); m.Queued != 0 || m.WaitingRuns != 0 || m.ReservedBytes != 70 {
		t.Fatalf("after a ended: %+v", m)
	}
}

// TestOverBudgetRunRunsAlone: a run predicted above the whole budget
// waits until no run holds any of it, then runs with nothing beside it.
func TestOverBudgetRunRunsAlone(t *testing.T) {
	s, stub := budgetSched(t, map[string]int64{"small": 10, "huge": 150, "after": 10})
	small := submitNamed(t, s, "acme", "small")
	huge := submitNamed(t, s, "globex", "huge")
	submitNamed(t, s, "acme", "after")
	waitStarted(t, stub, "small")
	if _, err := s.Cancel(small); err != nil {
		t.Fatal(err)
	}
	waitStarted(t, stub, "small", "huge")
	if m := s.Metrics(); m.WaitingRuns != 1 || m.ReservedBytes != 150 {
		t.Fatalf("with huge running: %+v", m)
	}
	if _, err := s.Cancel(huge); err != nil {
		t.Fatal(err)
	}
	waitStarted(t, stub, "small", "huge", "after")
}

// TestResumedRunPredictedAsItExecutes: the prediction is of the spec a
// run executes (BuildRun), so a resumed run on an incremental platform,
// which keeps every map output and checkpoints after every consume, is
// predicted above a fresh one; a DES run is not predicted.
func TestResumedRunPredictedAsItExecutes(t *testing.T) {
	spec := testSpec("acme")
	spec.Platform, spec.Backend = "inc-hash", "real"
	spec.Normalize()
	fresh, resumed := EngineExecutor{}.Predict(spec, nil), EngineExecutor{}.Predict(spec, &ResumeInfo{PrevRunID: 1, Attempt: 2})
	if fresh <= 0 || resumed <= fresh {
		t.Fatalf("predicted %d B fresh, %d B resumed", fresh, resumed)
	}
	spec.Backend = "sim"
	if p := (EngineExecutor{}).Predict(spec, &ResumeInfo{Attempt: 2}); p != 0 {
		t.Fatalf("DES run predicted %d B", p)
	}
}

// TestResumedBenchRunFitsTheJobShare: a checkpoint image holds the
// reducer's table part and its buckets' unflushed tails, the bucket
// files by reference, so the benchmark spec resumed after a crash is
// predicted within the jobs' share of onepassd's default 64 MiB budget:
// it is admitted by reservation beside another run, not alone. While
// images copied every bucket it was predicted at 183.5 MB.
func TestResumedBenchRunFitsTheJobShare(t *testing.T) {
	spec := JobSpec{Org: "acme", Query: "sessionization", Platform: "inc-hash", Backend: "real",
		DataBytes: 236e9, Scale: "1/4096", Users: 20_000, Workers: 2}
	spec.Normalize()
	resumed := EngineExecutor{}.Predict(spec, &ResumeInfo{PrevRunID: 1, Attempt: 2})
	const limit = 64 << 20
	t.Logf("resumed benchmark spec predicted at %.1f MB, the jobs' share %.1f MB", float64(resumed)/1e6, float64(limit*3/4)/1e6)
	b := budget.New(limit)
	if !b.Reserve(1) || !b.Reserve(resumed) {
		t.Fatalf("a run predicted at %d B is not admitted beside another run under a %d B budget", resumed, limit)
	}
}

// TestTwoFreshBenchRunsShareTheBudget: a wall-clock run holds in memory
// only the map outputs its reducers' window takes, so two fresh runs of
// the benchmark spec are both admitted by reservation under onepassd's
// default 64 MiB budget. While the window was the cluster's page cache
// (480 outputs), each was predicted at 28.6 MB, and two passed the jobs'
// share of 50.3 MB: they ran one at a time.
func TestTwoFreshBenchRunsShareTheBudget(t *testing.T) {
	spec := JobSpec{Org: "acme", Query: "sessionization", Platform: "inc-hash", Backend: "real",
		DataBytes: 236e9, Scale: "1/4096", Users: 20_000, Workers: 2}
	spec.Normalize()
	fresh := EngineExecutor{}.Predict(spec, nil)
	const limit = 64 << 20
	t.Logf("fresh benchmark spec predicted at %.1f MB, the jobs' share %.1f MB", float64(fresh)/1e6, float64(limit*3/4)/1e6)
	b := budget.New(limit)
	if !b.Reserve(fresh) || !b.Reserve(fresh) {
		t.Fatalf("two runs predicted at %d B each are not admitted side by side under a %d B budget", fresh, limit)
	}
}
