package sched_test

import (
	"crypto/sha256"
	"reflect"
	"testing"
	"time"

	"repro"
	"repro/internal/queries"
	"repro/internal/sched"
)

// TestBuildJobMatchesCLI pins BuildJob's promise that a scheduled run
// and a CLI run of the same spec are the same job: for every catalogue
// query, the plan cmd/onepass resolves (through the onepass facade) and
// BuildJob yield equal hints and the same input bytes — and those bytes
// are the ones the CLI's literal input specs produced before the
// catalogue existed (trigram's small skewed vocabulary included, which
// BuildJob used to replace with the default corpus).
func TestBuildJobMatchesCLI(t *testing.T) {
	const scale = 1.0 / 4096
	m := onepass.DefaultModel(scale)
	for _, name := range queries.Names {
		t.Run(name, func(t *testing.T) {
			spec := sched.JobSpec{Org: "acme", Query: name, Scale: "1/4096",
				DataBytes: 2e9, ChunkBytes: 64e6, Users: 700, StateBytes: 256, Seed: 7}
			spec.Normalize()
			if err := spec.Validate(); err != nil {
				t.Fatal(err)
			}
			job, newQuery, err := sched.BuildJob(spec)
			if err != nil {
				t.Fatal(err)
			}
			plan, err := onepass.ResolveQuery(name, onepass.QuerySizing{
				StateBytes: spec.StateBytes, Users: spec.Users,
				DataBytes: spec.DataBytes, ChunkBytes: spec.ChunkBytes, Seed: spec.Seed,
			}, m)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(job.Hints, plan.Hints) {
				t.Errorf("hints differ: BuildJob %+v, CLI %+v", job.Hints, plan.Hints)
			}
			if got, want := newQuery().Name(), plan.NewQuery().Name(); got != want {
				t.Errorf("BuildJob built query %q, CLI %q", got, want)
			}

			var literal onepass.Input
			phys, chunk := m.ScaleBytes(int64(spec.DataBytes)), m.ScaleBytes(int64(spec.ChunkBytes))
			if name == "trigram" {
				literal = onepass.SyntheticDocCorpus(onepass.DocCorpusSpec{
					PhysBytes: phys, ChunkPhys: chunk, Seed: spec.Seed,
					Vocab: 5_000, WordSkew: 1.6, WordV: 4, DocWords: 12,
				})
			} else {
				literal = onepass.SyntheticClickStream(onepass.ClickStreamSpec{
					PhysBytes: phys, ChunkPhys: chunk, Seed: spec.Seed,
					Users: spec.Users, UserSkew: 1.2, URLs: 20_000, URLSkew: 1.3,
					Duration: 24 * time.Hour, Jitter: 2 * time.Second,
				})
			}
			want := sha256.Sum256(literal.ChunkBytes(0))
			if got := sha256.Sum256(job.Input.ChunkBytes(0)); got != want {
				t.Errorf("BuildJob input chunk 0 = %x, the CLI's literal spec gives %x", got, want)
			}
			if got := sha256.Sum256(plan.Input.ChunkBytes(0)); got != want {
				t.Errorf("catalogue input chunk 0 = %x, the CLI's literal spec gives %x", got, want)
			}
		})
	}
}
