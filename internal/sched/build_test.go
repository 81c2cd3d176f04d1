package sched_test

import (
	"crypto/sha256"
	"testing"
	"time"

	"repro"
	"repro/internal/queries"
	"repro/internal/sched"
)

// TestBuildJobMatchesCLI pins that the bytes did not move: for every
// catalogue query, chunk 0 of the input BuildJob resolves hashes the
// same as the literal input specs cmd/onepass spelled out before the
// catalogue existed (trigram's small skewed vocabulary included, which
// BuildJob used to replace with the default corpus). That the CLI's
// flags, BuildJob and the figures build the same engine job is
// cmd/onepass's TestFlagPathMatchesSchedulerAndFigures.
func TestBuildJobMatchesCLI(t *testing.T) {
	m := onepass.DefaultModel(1.0 / 4096)
	for _, name := range queries.Names {
		t.Run(name, func(t *testing.T) {
			spec := sched.JobSpec{Org: "acme", Query: name, Scale: "1/4096",
				DataBytes: 2e9, ChunkBytes: 64e6, Users: 700, StateBytes: 256, Seed: 7}
			spec.Normalize()
			if err := spec.Validate(); err != nil {
				t.Fatal(err)
			}
			job, _, err := sched.BuildJob(spec)
			if err != nil {
				t.Fatal(err)
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
		})
	}
}
