package sched

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/jobstore"
)

// TestMarkRunReadsOnlyItsOwnRecord: a state change of one run reads
// that run by key. An undecodable sibling under the same job — an old
// record of a cron job, say — must not block it (it used to: markRun
// walked and decoded every run of the job).
func TestMarkRunReadsOnlyItsOwnRecord(t *testing.T) {
	stub := newStub()
	stub.gate = make(chan struct{})
	stub.started = make(chan string, 1)
	s, err := Open(Config{Dir: t.TempDir(), Exec: stub})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	j, err := s.Submit(testSpec("acme"))
	if err != nil {
		t.Fatal(err)
	}
	<-stub.started
	s.mu.Lock()
	runID := s.active[j.ID]
	s.mu.Unlock()

	if err := s.store.Update(func(tx *jobstore.Tx) error {
		if err := tx.Bucket(bucketRuns).Put(runKey(j.ID, runID+1), []byte("{garbage")); err != nil {
			return err
		}
		return markRun(tx, j.ID, runID, func(*Run) {})
	}); err != nil {
		t.Fatal(err)
	}
	close(stub.gate)
	waitState(t, s, j.ID, StateDone)
	if err := s.store.View(func(tx *jobstore.Tx) error {
		r, err := getRun(tx, j.ID, runID)
		if err == nil && (r.State != StateDone || r.Report == nil) {
			t.Errorf("run %d persisted as %+v, want done with its report", runID, r)
		}
		return err
	}); err != nil {
		t.Fatal(err)
	}
}

// TestLimitsRecordsOnReopen: persisted limits come back on reopen,
// zero fields taking the defaults, and a limits record that does not
// decode refuses Open — as a corrupt job or run record does — instead of
// silently giving that org the default limits.
func TestLimitsRecordsOnReopen(t *testing.T) {
	cfg := Config{Dir: t.TempDir(), Exec: newStub(), DefaultLimits: Limits{MaxConcurrent: 3, MaxQueued: 9}}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetLimits("big", Limits{MaxConcurrent: 8, MaxQueued: 128}); err != nil {
		t.Fatal(err)
	}
	put := func(org, record string) {
		t.Helper()
		if err := s.store.Update(func(tx *jobstore.Tx) error {
			return tx.Bucket(bucketLimits).Put([]byte(org), []byte(record))
		}); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	put("small", `{"max_concurrent":1,"max_queued":0}`)
	if s, err = Open(cfg); err != nil {
		t.Fatal(err)
	}
	if big, small := s.Limits("big"), s.Limits("small"); big != (Limits{8, 128}) || small != (Limits{1, 9}) {
		t.Fatalf("reopened to limits big %+v, small %+v; want {8 128} and {1 9}", big, small)
	}
	put("acme", "{garbage")
	if s, err := Open(cfg); err == nil || !strings.Contains(err.Error(), "sched: corrupt limits record acme") {
		if err == nil {
			s.Close()
		}
		t.Fatalf("Open over a corrupt limits record: %v, want it refused", err)
	}
}

// TestOpensStoreWithOldIndexBuckets: earlier versions wrote an
// org_index and a user_index row beside every job record and never
// read them. A directory holding them must open to the same jobs and
// runs, keep the rows as inert data, and accept new work.
func TestOpensStoreWithOldIndexBuckets(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir, Exec: newStub()})
	if err != nil {
		t.Fatal(err)
	}
	var want []*Job
	for _, org := range []string{"a", "b", "a"} {
		j, err := s.Submit(testSpec(org))
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, waitState(t, s, j.ID, StateDone))
		// The rows the old putJob added, in its key shapes.
		if err := s.store.Update(func(tx *jobstore.Tx) error {
			if err := tx.Bucket("org_index").Put([]byte(org+keySep+j.ID), []byte(j.ID)); err != nil {
				return err
			}
			return tx.Bucket("user_index").Put([]byte(org+keySep+"u1"+keySep+j.ID), []byte(j.ID))
		}); err != nil {
			t.Fatal(err)
		}
	}
	wantRuns, err := s.Runs(want[2].ID)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s, err = Open(Config{Dir: dir, Exec: newStub()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := s.List(""); !reflect.DeepEqual(got, want) {
		t.Fatalf("reopened to jobs %+v, want %+v", got, want)
	}
	if got, err := s.Runs(want[2].ID); err != nil || !reflect.DeepEqual(got, wantRuns) {
		t.Fatalf("reopened to runs %+v (%v), want %+v", got, err, wantRuns)
	}
	dump := s.store.Dump()
	if len(dump["org_index"]) != 3 || len(dump["user_index"]) != 3 {
		t.Fatalf("old index rows not carried: %d org, %d user", len(dump["org_index"]), len(dump["user_index"]))
	}
	j, err := s.Submit(testSpec("a"))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, j.ID, StateDone)
	if got := len(s.List("a")); got != 3 {
		t.Fatalf("List(a) = %d jobs after a submit on the old store, want 3", got)
	}
}
