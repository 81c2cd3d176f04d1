package main

import (
	"bytes"
	"runtime"
	"time"

	"repro"
	"repro/internal/sched"
)

// batchRecords is the number of click records in one POST /v1/events
// body (64 × 79 B ≈ 5 KB).
const batchRecords = 64

// sizes holds what the smoke test shrinks; a benchmark run always uses
// fullSizes.
type sizes struct {
	poolBatches  int     // batches generated per ingest workload
	jobDataBytes float64 // logical input of one job
	setupReps    int     // set-ups per run; setup_s is their median
	probeReps    int     // repetitions of each job-sized probe
}

var fullSizes = sizes{
	poolBatches:  8192,
	jobDataBytes: 236e9, // the paper's 236 GB, ≈ 57.6 MB physical at 1/4096
	setupReps:    3,
	probeReps:    3,
}

// nproc bounds the generator's connections and the jobs' workers.
var nproc = runtime.NumCPU()

// clickPool cuts n request bodies of batchRecords records each from a
// seeded synthetic click stream over the given user population. The
// stream is the program's own generator; the daemon only ever sees
// these bytes.
func clickPool(seed int64, users, n int) [][]byte {
	spec := onepass.ClickStreamSpec{
		PhysBytes: 1, ChunkPhys: 1, Seed: seed,
		Users: users, UserSkew: 1.2, URLs: 10_000, URLSkew: 1.3,
		Duration: time.Hour, Jitter: 2 * time.Second,
	}
	batchBytes := batchRecords * onepass.SyntheticClickStream(spec).RecordBytes()
	const batchesPerChunk = 256
	spec.ChunkPhys = int64(batchBytes * batchesPerChunk)
	spec.PhysBytes = int64(batchBytes * n)
	stream := onepass.SyntheticClickStream(spec)
	pool := make([][]byte, 0, n)
	for c := 0; c < stream.NumChunks(); c++ {
		chunk := stream.ChunkBytes(c)
		for len(chunk) >= batchBytes && len(pool) < n {
			pool = append(pool, chunk[:batchBytes:batchBytes])
			chunk = chunk[batchBytes:]
		}
	}
	return pool
}

// splitBatch turns a request body back into its records, as the
// events handler does.
func splitBatch(body []byte) [][]byte {
	return bytes.Split(bytes.TrimSuffix(body, []byte("\n")), []byte("\n"))
}

// jobSpec is the sessionization job both job workloads and every job
// probe run: one spec, so the DES and the real backend, the library
// and the daemon, all see the same generated input.
func jobSpec(seed int64, platform, backend string, sz sizes) sched.JobSpec {
	spec := sched.JobSpec{
		Org: "bench", Query: "sessionization", Platform: platform, Backend: backend,
		DataBytes: sz.jobDataBytes, Scale: "1/4096", Users: 20_000,
		Workers: nproc,
		Seed:    seed<<1 | 1, // never 0, which the scheduler would replace by its default
	}
	spec.Normalize()
	return spec
}

// batchInput presents acknowledged batches as a job input, for the
// reference evaluator.
type batchInput struct {
	pool [][]byte
	sent []int // pool indexes, one per acknowledged batch
}

const batchesPerRefChunk = 1024

func (b batchInput) Name() string { return "acked-batches" }

func (b batchInput) NumChunks() int {
	return (len(b.sent) + batchesPerRefChunk - 1) / batchesPerRefChunk
}

func (b batchInput) ChunkBytes(i int) []byte {
	lo := i * batchesPerRefChunk
	hi := min(lo+batchesPerRefChunk, len(b.sent))
	var out []byte
	for _, idx := range b.sent[lo:hi] {
		out = append(out, b.pool[idx]...)
	}
	return out
}
