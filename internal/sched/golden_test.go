package sched

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/engine"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files from current output")

// TestRunRecordGolden pins the persisted run-record shape: a scheduled
// deterministic sim job must serialize to exactly the committed golden
// JSON (WallTime and Workers zeroed — the two fields documented to
// vary with host conditions). A diff here means the wire format of the
// job store's run history changed; regenerate with -update when the
// change is intentional.
func TestRunRecordGolden(t *testing.T) {
	spec := engineSpec("acme")
	s, err := Open(Config{Dir: t.TempDir(), Exec: EngineExecutor{}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, j.ID, StateDone)
	runs, err := s.Runs(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 || runs[0].Report == nil {
		t.Fatalf("run history %+v", runs)
	}
	rec := runs[0]
	rec.Report = rec.Report.Without(engine.Host)

	got, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	path := filepath.Join("testdata", "run_record.golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		line := 1
		for i := 0; i < len(got) && i < len(want); i++ {
			if got[i] != want[i] {
				break
			}
			if got[i] == '\n' {
				line++
			}
		}
		t.Fatalf("run record diverges from %s at line %d (rerun with -update if intentional); got %d bytes, want %d",
			path, line, len(got), len(want))
	}
}
