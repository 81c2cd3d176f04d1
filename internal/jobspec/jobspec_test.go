package jobspec

import (
	"testing"
)

// TestBackendsRunOneBuild: the dispatch hands one built job to either
// substrate — the simulation with a query made once, the wall-clock
// backend with the factory and a pool sized by Cluster.Parallelism (0 =
// GOMAXPROCS) — and both return the same answer. (That the three
// front-ends build equal jobs is cmd/onepass's
// TestFlagPathMatchesSchedulerAndFigures; what Build refuses is its
// TestBadFlagsAreErrors and sched's FuzzBuildJob.)
func TestBackendsRunOneBuild(t *testing.T) {
	job, newQuery, err := Build(Params{Query: "clickcount", Platform: "inc-hash", Scale: "1/4096",
		DataBytes: 8e8, ChunkBytes: 48e6, StateBytes: 512, Users: 400, Seed: 7, Nodes: 3, Reducers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if job.Query != nil {
		t.Error("Build set Query: the backend makes it from the factory")
	}
	var records [2]int64
	for i, name := range []string{"sim", "real"} {
		backend, err := ParseBackend(name)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := backend(job, newQuery)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		records[i] = rep.OutputRecords
	}
	if records[0] == 0 || records[0] != records[1] {
		t.Errorf("output records: sim %d, real %d", records[0], records[1])
	}
	if _, err := ParseBackend("bogus"); err == nil {
		t.Error("unknown backend accepted")
	}
}
