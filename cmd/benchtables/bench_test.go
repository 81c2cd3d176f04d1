package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestWriteBenchReport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.json")
	rep := &benchReport{
		GeneratedBy: "test",
		GoVersion:   "go0.0",
		GOMAXPROCS:  4,
		Benchmarks:  []benchEntry{{Name: "x", NsPerOp: 1, MBPerSec: 2, AllocsPerOp: 3, BytesPerOp: 4}},
	}
	if err := writeBenchReport(path, rep); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 || data[len(data)-1] != '\n' {
		t.Error("report must end with a newline")
	}
	var back benchReport
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if back.GeneratedBy != "test" || len(back.Benchmarks) != 1 || back.Benchmarks[0].Name != "x" {
		t.Errorf("round trip mismatch: %+v", back)
	}

	if err := writeBenchReport(filepath.Join(path, "under-a-file.json"), rep); err == nil {
		t.Error("writing under a regular file must fail")
	}
}
