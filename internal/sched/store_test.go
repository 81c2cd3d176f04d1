package sched

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestUndecodableRunRecordRefusesOpen: a run row that does not decode
// refuses Open, as a corrupt job or limits row does, instead of
// starting without that run.
func TestUndecodableRunRecordRefusesOpen(t *testing.T) {
	cfg := Config{Dir: t.TempDir(), Exec: newStub()}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	j, err := s.Submit(testSpec("acme"))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, j.ID, StateDone)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	appendRecord(t, cfg.Dir, map[string]any{"runs": []any{"{garbage"}})
	if s, err := Open(cfg); err == nil || !strings.Contains(err.Error(), "sched: corrupt run record") {
		if err == nil {
			s.Close()
		}
		t.Fatalf("Open over a corrupt run record: %v, want it refused", err)
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
	put := func(org string, record any) {
		t.Helper()
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		appendRecord(t, cfg.Dir, map[string]any{"limits": map[string]any{org: record}})
	}
	put("small", json.RawMessage(`{"max_concurrent":1,"max_queued":0}`))
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

// TestOldBucketStoreDirectoryRefused: earlier versions kept jobs in a
// bucket store whose files this version does not read. Open on such a
// directory fails naming the file, and leaves the directory as it was
// rather than starting an empty job log beside the old jobs.
func TestOldBucketStoreDirectoryRefused(t *testing.T) {
	for _, name := range []string{"log-00000001.seg", "snap-0000000000000003.sn"} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, name), []byte("old jobs"), 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(Config{Dir: dir, Exec: newStub()})
		if err == nil {
			s.Close()
			t.Fatalf("Open over %s succeeded, want it refused", name)
		}
		if !strings.Contains(err.Error(), name) || !strings.Contains(err.Error(), "bucket-store") {
			t.Fatalf("Open over %s: %v, want an error naming the file as a bucket-store directory", name, err)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 1 || entries[0].Name() != name {
			t.Fatalf("refused Open left %v in the directory, want only %s", entries, name)
		}
	}
	// The refusal is by name: an empty directory opens.
	s, err := Open(Config{Dir: t.TempDir(), Exec: newStub()})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.List(""); !reflect.DeepEqual(got, []*Job(nil)) {
		t.Fatalf("fresh directory lists %+v", got)
	}
	s.Close()
}

// TestRowsWithoutIDsRefuseOpen: rows that decode but carry no id a
// transition could have written — a null row, a job id not minted from
// the counter, a run without its id or job — refuse Open too: replay
// could not place them.
func TestRowsWithoutIDsRefuseOpen(t *testing.T) {
	for name, rec := range map[string]any{
		"null job":      map[string]any{"jobs": []any{nil}},
		"job id":        map[string]any{"jobs": []any{map[string]any{"id": "x1"}}},
		"null run":      map[string]any{"runs": []any{nil}},
		"run id":        map[string]any{"runs": []any{map[string]any{"job_id": "j000001"}}},
		"run job":       map[string]any{"runs": []any{map[string]any{"id": 1}}},
		"not an object": []any{},
	} {
		dir := t.TempDir()
		appendRecord(t, dir, rec)
		if s, err := Open(Config{Dir: dir, Exec: newStub()}); err == nil || !strings.Contains(err.Error(), "sched: corrupt") {
			if err == nil {
				s.Close()
			}
			t.Errorf("%s: Open = %v, want it refused as corrupt", name, err)
		}
	}
}
