package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"testing"
	"time"

	"repro"
	"repro/internal/bytestore"
	"repro/internal/frame"
	"repro/internal/hashfam"
	"repro/internal/ingest"
	"repro/internal/kvenc"
	"repro/internal/sim"
)

// The -bench-json mode measures the data-plane kernels and one
// end-to-end job, then writes the results as machine-readable JSON.
// Absolute ns/op do not transfer across hosts (EXPERIMENTS.md, "BENCH
// deltas retracted"), so a row carries no comparison to an earlier
// file: compare commits by alternating pairs on one host (bench/).

type benchEntry struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	MBPerSec    float64 `json:"mb_per_sec,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

type benchReport struct {
	GeneratedBy string       `json:"generated_by"`
	GoVersion   string       `json:"go_version"`
	GOMAXPROCS  int          `json:"gomaxprocs"`
	Timestamp   string       `json:"timestamp"`
	Benchmarks  []benchEntry `json:"benchmarks"`
}

// benchKVStream builds an n-record kvenc stream shaped like collector
// output (8-byte user keys, ~80-byte click values).
func benchKVStream(n int) []byte {
	rng := rand.New(rand.NewSource(7))
	var data []byte
	val := []byte("0001234567\tu0001234\t/p001234.html\t200\t1234\tMozilla/4.0-compatible-padpad")
	var key [8]byte
	for i := 0; i < n; i++ {
		u := rng.Intn(20000)
		key[0] = 'u'
		for j := 7; j >= 1; j-- {
			key[j] = byte('0' + u%10)
			u /= 10
		}
		data = kvenc.AppendPair(data, key[:], val)
	}
	return data
}

// benchIngestBatch builds one 64-record click batch shaped like the
// service's POST /v1/events payloads.
func benchIngestBatch() [][]byte {
	const per = 64
	recs := make([][]byte, per)
	for i := 0; i < per; i++ {
		ts := int64(1_700_000_000_000) + int64(i)*977
		recs[i] = []byte(fmt.Sprintf("%013d\tuser%04d\t/page%03d\t200\t%d\tMozilla/4.0",
			ts, i%7, i%13, 100+i%17))
	}
	return recs
}

// writeBenchReport marshals the report as indented JSON (with trailing
// newline) and writes it to path.
func writeBenchReport(path string, rep *benchReport) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	return os.WriteFile(path, data, 0o644)
}

// benchUsers is the distinct-user population of the 16GB click stream
// every job/* row runs over.
const benchUsers = 20_000

// benchClicks16G builds that stream: the paper's sessionization
// workload at 1/4096 scale.
func benchClicks16G(m onepass.CostModel) onepass.Input {
	return onepass.SyntheticClickStream(onepass.ClickStreamSpec{
		PhysBytes: m.ScaleBytes(16e9),
		ChunkPhys: m.ScaleBytes(64e6),
		Seed:      42,
		Users:     benchUsers,
		UserSkew:  1.2,
		URLs:      10_000,
		URLSkew:   1.3,
		Duration:  24 * time.Hour,
		Jitter:    2 * time.Second,
	})
}

// benchDupUsers shrinks the key space for the node-combine pair: with
// ~100 map output pairs per distinct user per node, the in-node fold
// has real duplication to collapse (K_r/K_m ≈ 0.01).
const benchDupUsers = 400

// benchClicksDup16G is the same 16GB stream over that small key space.
func benchClicksDup16G(m onepass.CostModel) onepass.Input {
	return onepass.SyntheticClickStream(onepass.ClickStreamSpec{
		PhysBytes: m.ScaleBytes(16e9),
		ChunkPhys: m.ScaleBytes(64e6),
		Seed:      42,
		Users:     benchDupUsers,
		UserSkew:  1.2,
		URLs:      10_000,
		URLSkew:   1.3,
		Duration:  24 * time.Hour,
		Jitter:    2 * time.Second,
	})
}

func runBenchJSON(path string) error {
	type spec struct {
		name  string
		bytes int64 // processed per op, for MB/s (0 = none)
		fn    func(b *testing.B)
	}

	sortInput := benchKVStream(10000)
	runs := make([][]byte, 16)
	var mergeTotal int
	for i := range runs {
		runs[i], _ = kvenc.SortStream(benchKVStream(2000))
		mergeTotal += len(runs[i])
	}
	payload := make([]byte, 64<<10)
	framed := frame.Append(nil, payload)
	ingestBatch := benchIngestBatch()
	var ingestBatchBytes int64
	for _, rec := range ingestBatch {
		ingestBatchBytes += int64(len(rec))
	}
	hashFn := hashfam.NewFamily(1).Fn(0)
	hashKey := []byte("u0012345")

	suite := []spec{
		{"kvenc/SortStream10k", int64(len(sortInput)), func(b *testing.B) {
			dst := make([]byte, 0, len(sortInput))
			for i := 0; i < b.N; i++ {
				dst, _ = kvenc.SortStreamTo(dst[:0], sortInput)
			}
		}},
		{"kvenc/MergeStream16x2k", int64(mergeTotal), func(b *testing.B) {
			dst := make([]byte, 0, mergeTotal)
			for i := 0; i < b.N; i++ {
				dst, _ = kvenc.MergeStreamTo(dst[:0], runs)
			}
		}},
		{"frame/Append64K", int64(len(payload)), func(b *testing.B) {
			dst := make([]byte, 0, len(payload)+int(frame.Overhead(len(payload))))
			for i := 0; i < b.N; i++ {
				dst = frame.Append(dst[:0], payload)
			}
		}},
		{"frame/Verify64K", int64(len(payload)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := frame.Next(framed); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"bytestore/PoolGetPut64K", 0, func(b *testing.B) {
			bytestore.Put(bytestore.Get(64 << 10))
			for i := 0; i < b.N; i++ {
				bytestore.Put(bytestore.Get(64 << 10))
			}
		}},
		{"hashfam/Sum64", int64(len(hashKey)), func(b *testing.B) {
			var sink uint64
			for i := 0; i < b.N; i++ {
				sink += hashFn.Sum64(hashKey)
			}
			_ = sink
		}},
		{"kernel/SimEventLoop", 0, func(b *testing.B) {
			// One op is one DES event: 64 processes holding for unequal
			// times, so each event is a heap pop, a coroutine switch in
			// and out, and a heap push. ns/op and allocs/op are per event.
			k := sim.NewKernel()
			for i := 0; i < 64; i++ {
				d := time.Duration(i%17+1) * time.Microsecond
				k.Spawn("holder", func(p *sim.Proc) {
					for n := i; n < b.N; n += 64 {
						p.Hold(d)
					}
				})
			}
			b.ResetTimer()
			if err := k.Run(); err != nil {
				b.Fatal(err)
			}
		}},
		{"job/IngestThroughput", ingestBatchBytes, func(b *testing.B) {
			// The durable ingest path of onepassd: batch encode, CRC32C
			// frame, write, fsync, periodic segment seal. ns/op is the
			// latency a client pays before its acknowledgment; MB/s is
			// single-writer durable ingest bandwidth.
			factory, validate, err := ingest.StandardQuery("clickcount")
			if err != nil {
				b.Fatal(err)
			}
			ing, err := ingest.Open(ingest.Config{
				Dir:              b.TempDir(),
				QueryName:        "clickcount",
				NewQuery:         factory,
				Validate:         validate,
				SealBytes:        1 << 20,
				CheckpointEvery:  -1, // isolate the WAL from checkpoint cost
				MaxInflightBytes: 1 << 40,
				QueueDepth:       1 << 16,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ing.Ingest(ingestBatch); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if err := ing.Drain(context.Background()); err != nil {
				b.Fatal(err)
			}
		}},
		{"job/SessionizationSM16G", 0, func(b *testing.B) {
			m := onepass.DefaultModel(1.0 / 4096)
			cluster := onepass.PaperCluster(m)
			cluster.MergeFactor = 16
			input := benchClicks16G(m)
			for i := 0; i < b.N; i++ {
				_, err := onepass.Run(onepass.Job{
					Query:     onepass.Sessionization(5*time.Minute, 512, 5*time.Second),
					Input:     input,
					Platform:  onepass.SortMerge,
					Cluster:   cluster,
					Hints:     onepass.Hints{Km: 1.15, DistinctKeys: benchUsers},
					ScanEvery: 4096,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"job/SessionizationRealW8", 0, func(b *testing.B) {
			// The same 16GB sessionization job on the wall-clock
			// backend: real goroutines (8 workers), in-memory shuffle.
			// The ns/op here is genuine execution time, so the ratio to
			// SessionizationSM16G is the DES's simulation overhead.
			m := onepass.DefaultModel(1.0 / 4096)
			cluster := onepass.PaperCluster(m)
			cluster.MergeFactor = 16
			input := benchClicks16G(m)
			newQ := func() onepass.Query {
				return onepass.Sessionization(5*time.Minute, 512, 5*time.Second)
			}
			for i := 0; i < b.N; i++ {
				_, err := onepass.RunReal(onepass.Job{
					Input:     input,
					Platform:  onepass.SortMerge,
					Cluster:   cluster,
					Hints:     onepass.Hints{Km: 1.15, DistinctKeys: benchUsers},
					ScanEvery: 4096,
				}, newQ, 8)
				if err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"job/SessionizationNodeCombineOff", 0, func(b *testing.B) {
			// The combine-off half of the node-combine pair: the 16GB
			// click stream with a duplication-heavy key space (400
			// distinct users, so low K_r/K_m) aggregated by the
			// combinable per-user count (sessionization itself has no
			// combine function). The reduce buffer is tightened to 1/8
			// so the unreduced shuffle exceeds reducer memory — the
			// paper's regime where hybrid hash must spill buckets.
			m := onepass.DefaultModel(1.0 / 4096)
			cluster := onepass.PaperCluster(m)
			cluster.ReduceBuffer /= 8
			input := benchClicksDup16G(m)
			for i := 0; i < b.N; i++ {
				_, err := onepass.Run(onepass.Job{
					Query:    onepass.ClickCount(),
					Input:    input,
					Platform: onepass.MRHash,
					Cluster:  cluster,
					Hints:    onepass.Hints{Km: 0.12, DistinctKeys: benchDupUsers},
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"job/SessionizationNodeCombine", 0, func(b *testing.B) {
			// The combine-on half: identical job with the in-node fold
			// absorbing every node's map outputs into one merged run
			// before the shuffle (~5.7x fewer shuffle bytes). The delta
			// to the Off row is the measured wall-clock win of moving
			// 5.7x fewer bytes through the shuffle, spill, and fetch
			// machinery, net of the fold's own CPU.
			m := onepass.DefaultModel(1.0 / 4096)
			cluster := onepass.PaperCluster(m)
			cluster.ReduceBuffer /= 8
			input := benchClicksDup16G(m)
			for i := 0; i < b.N; i++ {
				_, err := onepass.Run(onepass.Job{
					Query:       onepass.ClickCount(),
					Input:       input,
					Platform:    onepass.MRHash,
					Cluster:     cluster,
					Hints:       onepass.Hints{Km: 0.12, DistinctKeys: benchDupUsers},
					NodeCombine: onepass.NodeCombineOn,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"job/SessionizationRealRecovery", 0, func(b *testing.B) {
			// The same 16GB sessionization job on the wall-clock backend
			// under the full recovery cocktail: a node killed halfway
			// through the map phase, a 3x straggler with speculative
			// backups, two injected map-attempt failures, 2% transient
			// shuffle errors, and checkpointed incremental reducer state
			// (INC-hash). The delta to SessionizationRealW8 is the
			// measured price of recovery itself — re-executed maps,
			// restarted reducers replaying their post-checkpoint suffix,
			// and fetch-retry backoff.
			m := onepass.DefaultModel(1.0 / 4096)
			cluster := onepass.PaperCluster(m)
			cluster.MergeFactor = 16
			input := benchClicks16G(m)
			newQ := func() onepass.Query {
				return onepass.Sessionization(5*time.Minute, 512, 5*time.Second)
			}
			for i := 0; i < b.N; i++ {
				_, err := onepass.RunReal(onepass.Job{
					Input:    input,
					Platform: onepass.INCHash,
					Cluster:  cluster,
					Hints:    onepass.Hints{Km: 1.15, DistinctKeys: benchUsers},
					Faults: onepass.FaultPlan{
						KillAtMapProgress: map[int]float64{1: 0.5},
						SlowNodes:         map[int]float64{2: 3},
						Speculate:         true,
						MapFailures:       map[int]int{0: 1, 3: 1},
						FailPoint:         0.5,
						ShuffleErrorRate:  0.02,
					},
					CheckpointEvery: time.Millisecond,
					ScanEvery:       4096,
				}, newQ, 8)
				if err != nil {
					b.Fatal(err)
				}
			}
		}},
	}

	rep := benchReport{
		GeneratedBy: "benchtables -bench-json",
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Timestamp:   time.Now().UTC().Format(time.RFC3339),
	}
	for _, s := range suite {
		fmt.Fprintf(os.Stderr, "bench %-28s ", s.name)
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			s.fn(b)
		})
		e := benchEntry{
			Name:        s.name,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		}
		if s.bytes > 0 && r.T > 0 {
			e.MBPerSec = float64(s.bytes) * float64(r.N) / r.T.Seconds() / 1e6
		}
		rep.Benchmarks = append(rep.Benchmarks, e)
		fmt.Fprintf(os.Stderr, "%12.0f ns/op  %6d allocs/op\n", e.NsPerOp, e.AllocsPerOp)
	}

	if err := writeBenchReport(path, &rep); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s (%d benchmarks)\n", path, len(rep.Benchmarks))
	return nil
}
