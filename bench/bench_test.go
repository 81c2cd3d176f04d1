package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// smokeSizes shrinks the inputs so that all four workloads, traced,
// fit a tier-1 test: the code paths are the benchmark's, the numbers
// mean nothing.
var smokeSizes = sizes{poolBatches: 512, jobDataBytes: 4e9, setupReps: 1, probeReps: 1}

// TestSeededInputs pins that the seed alone decides what the program
// is sent: the same seed yields byte-identical request bodies and job
// specs, another seed different ones.
func TestSeededInputs(t *testing.T) {
	pool := func(seed int64) []byte { return bytes.Join(clickPool(seed, 1000, 32), nil) }
	spec := func(seed int64) []byte {
		b, err := json.Marshal(jobSpec(seed, "inc-hash", "real", fullSizes))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if a, b := pool(7), pool(7); !bytes.Equal(a, b) {
		t.Error("the same seed produced two different request streams")
	}
	if bytes.Equal(pool(7), pool(8)) {
		t.Error("seeds 7 and 8 produced the same request stream")
	}
	if n := len(clickPool(7, 1000, 32)); n != 32 {
		t.Errorf("clickPool returned %d batches, want 32", n)
	}
	if n := len(splitBatch(clickPool(7, 1000, 1)[0])); n != batchRecords {
		t.Errorf("a batch holds %d records, want %d", n, batchRecords)
	}
	if a, b := spec(7), spec(7); !bytes.Equal(a, b) {
		t.Error("the same seed produced two different job specs")
	}
	if bytes.Equal(spec(7), spec(8)) {
		t.Error("seeds 7 and 8 produced the same job spec")
	}
	if jobSpec(0, "sm", "sim", fullSizes).Seed == jobSpec(21, "sm", "sim", fullSizes).Seed {
		t.Error("seed 0 fell back to the scheduler's default seed")
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmoke runs every workload for about a second, traced, and holds
// what it emits against BENCHMARK.json: the same metric names with the
// same units, all checks passing, no operation failed.
func TestSmoke(t *testing.T) {
	benchDir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	b, err := readBenchmarkFile(benchDir)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(b.Workloads); n < 2 || n > 8 {
		t.Fatalf("BENCHMARK.json lists %d workloads, want 2 to 8", n)
	}
	known := map[string]bool{}
	for _, name := range workloadNames {
		known[name] = true
	}
	for _, w := range b.Workloads {
		if !known[w.Name] || w.Why == "" {
			t.Errorf("BENCHMARK.json workload %q (why: %q) must be one the harness runs, with a reason", w.Name, w.Why)
		}
	}
	if len(b.EndToEnd) > 16 || len(b.PerLayer) > 128 {
		t.Fatalf("%d end-to-end and %d per-layer metrics exceed 16 and 128", len(b.EndToEnd), len(b.PerLayer))
	}
	wantE2E, wantLayer := map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		wantE2E[m.Name] = m.Unit
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range b.PerLayer {
		wantLayer[m.Name] = m.Unit
	}
	if len(wantE2E) != len(b.EndToEnd) || len(wantLayer) != len(b.PerLayer) {
		t.Error("BENCHMARK.json names a metric twice")
	}
	if len(wantLayer) != len(layerMetrics) {
		t.Errorf("BENCHMARK.json has %d per-layer metrics, layers.go %d", len(wantLayer), len(layerMetrics))
	}

	same := func(t *testing.T, kind string, got metrics, want map[string]string) {
		t.Helper()
		for name, m := range got {
			if !nameRE.MatchString(name) {
				t.Errorf("%s metric name %q is malformed", kind, name)
			}
			if unit, ok := want[name]; !ok {
				t.Errorf("%s metric %s is not in BENCHMARK.json", kind, name)
			} else if unit != m.Unit || unit == "" {
				t.Errorf("%s metric %s has unit %q, BENCHMARK.json says %q", kind, name, m.Unit, unit)
			}
		}
		for name := range want {
			if _, ok := got[name]; !ok {
				t.Errorf("%s metric %s was not emitted", kind, name)
			}
		}
	}
	// All four, ingest-sat too: the driver does not gate it, the harness
	// still has to run it right.
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			res, err := run(config{workload: name, seed: 1, seconds: 1, trace: true, sz: smokeSizes, benchDir: benchDir})
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range res.problems {
				t.Error("failed check:", p)
			}
			if res.failed != 0 || res.attempted < 1 {
				t.Errorf("%d of %d operations failed", res.failed, res.attempted)
			}
			same(t, "end-to-end", res.e2e, wantE2E)
			same(t, "per-layer", res.layer, wantLayer)
			for name, m := range res.e2e {
				if m.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, must never be 0", name, m.Value)
				}
			}
			if _, err := os.Stat(benchDir + "/out/" + name + ".trace.json"); err != nil {
				t.Error("no trace file:", err)
			}
		})
	}
}
