// Command onepassd runs the crash-recoverable streaming ingestion
// service: a WAL-backed HTTP daemon that folds click/log events
// through an incremental query as they arrive and serves the current
// answer with its coverage estimate γ.
//
// Usage:
//
//	onepassd -wal-dir /var/lib/onepassd -query clickcount -addr :8080
//
// Batches POSTed to /v1/events (one record per line) are acknowledged
// only after their frame is fsynced into the WAL; GET /v1/stats serves
// the current answers. On SIGTERM the daemon drains: it folds every
// acknowledged batch, writes a final checkpoint, seals the WAL
// segment, and exits 0. After kill -9, restarting on the same -wal-dir
// restores the newest checkpoint and replays only the WAL suffix
// behind it — answers are bit-identical to a run that never crashed.
//
// With -jobs-dir set the daemon also runs the durable multi-tenant
// job scheduler: specs POSTed to /v1/jobs execute on the sim or real
// backend under per-org concurrency limits, run history (each run's
// Report as a profile) persists in an embedded crash-safe job store, and
// runs lost to a crash resume through checkpointed reducer state on
// the next boot.
//
// One byte budget (-memory-budget) bounds both: ingest sheds batches
// that do not fit beside what it holds, and a queued real-backend run
// starts only when its predicted peak heap fits. While runs execute,
// the Go soft memory limit is held to what was admitted, unless
// GOMEMLIMIT is set.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/budget"
	"repro/internal/ingest"
	"repro/internal/sched"
	"repro/internal/serve"
)

// flags are the daemon's command line.
type flags struct {
	addr, dir, query, addrFile, jobsDir *string
	seal, ckpt, budget, inflight        *int64
	drain                               *time.Duration
	jobsConc, jobsQueued                *int
}

func newFlags() (*flag.FlagSet, *flags) {
	fs := flag.NewFlagSet("onepassd", flag.ExitOnError)
	return fs, &flags{
		addr:     fs.String("addr", "127.0.0.1:8080", "listen address (host:port)"),
		dir:      fs.String("wal-dir", "", "WAL + checkpoint directory (required; created if absent)"),
		query:    fs.String("query", "clickcount", "query: sessionization|clickcount|frequsers|pagefreq|trigram"),
		seal:     fs.Int64("seal-bytes", 64<<20, "seal the open WAL segment once it reaches this many bytes"),
		ckpt:     fs.Int64("checkpoint-every", 256, "checkpoint after every Nth folded batch (negative disables)"),
		budget:   fs.Int64("memory-budget", 64<<20, "bytes shared by accepted-but-unfolded batches (shed 429 beyond it) and running jobs' predicted peak heaps (queued until they fit)"),
		inflight: fs.Int64("max-inflight-bytes", 64<<20, "alias of -memory-budget"),
		drain:    fs.Duration("drain-timeout", 30*time.Second, "graceful-shutdown budget on SIGTERM"),
		addrFile: fs.String("addr-file", "", "write the bound listen address to this file (for :0 ports)"),

		jobsDir:    fs.String("jobs-dir", "", "job-store directory: serve the /v1/jobs scheduler API (created if absent)"),
		jobsConc:   fs.Int("jobs-max-concurrent", 2, "default per-org concurrent-run limit"),
		jobsQueued: fs.Int("jobs-max-queued", 64, "default per-org queued-run limit before shedding 429s"),
	}
}

func main() {
	fs, f := newFlags()
	fs.Parse(os.Args[1:])
	size, err := memoryBudget(fs, f)
	if err != nil {
		fatal(err)
	}
	cfg, opts, err := buildConfig(*f.addr, *f.dir, *f.query, *f.seal, *f.ckpt, *f.drain, *f.addrFile)
	if err != nil {
		fatal(err)
	}
	schedCfg, err := buildSchedConfig(*f.jobsDir, *f.jobsConc, *f.jobsQueued)
	if err != nil {
		fatal(err)
	}
	bud := budget.New(size)
	cfg.Budget = bud
	ing, err := ingest.Open(cfg)
	if err != nil {
		fatal(err)
	}
	r := ing.Recovery
	fmt.Fprintf(os.Stderr, "onepassd: %s on %s: restored checkpoint seq=%d, replayed %d batches (%d bytes), torn tails truncated: %d\n",
		cfg.QueryName, cfg.Dir, r.RestoredSeq, r.ReplayedBatches, r.RecoveryReadBytes, r.TornTailsTruncated)
	if schedCfg != nil {
		if set := softLimit(os.Getenv("GOMEMLIMIT"), os.Stderr); set != nil {
			// The base is what the daemon holds before any job: its live
			// heap now, less the fold state the budget reads as it grows.
			runtime.GC()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			bud.SoftLimit(max(0, int64(ms.HeapAlloc)-ing.FoldBytes()), ing.FoldBytes, set)
		}
		schedCfg.Budget = bud
		s, err := sched.Open(*schedCfg)
		if err != nil {
			fatal(err)
		}
		sr := s.Recovery
		fmt.Fprintf(os.Stderr, "onepassd: jobs on %s: %d jobs restored, %d queued runs requeued, %d interrupted runs resuming\n",
			schedCfg.Dir, sr.Jobs, sr.RequeuedRuns, sr.ResumedRuns)
		opts.Jobs = s
	}
	if err := serve.Run(context.Background(), ing, opts); err != nil {
		fatal(err)
	}
}

// memoryBudget resolves -memory-budget and its alias -max-inflight-bytes,
// the flag's name before the budget covered jobs too.
func memoryBudget(fs *flag.FlagSet, f *flags) (int64, error) {
	set := map[string]bool{}
	fs.Visit(func(fl *flag.Flag) { set[fl.Name] = true })
	name, size := "memory-budget", *f.budget
	switch {
	case set["memory-budget"] && set["max-inflight-bytes"]:
		return 0, errors.New("-memory-budget and -max-inflight-bytes name the same budget: set one")
	case set["max-inflight-bytes"]:
		name, size = "max-inflight-bytes", *f.inflight
	}
	if size <= 0 {
		return 0, fmt.Errorf("bad -%s %d (want > 0)", name, size)
	}
	return size, nil
}

// softLimit is where the budget reports the Go soft memory limit: the
// runtime, unless the operator set GOMEMLIMIT (env), which then stays
// theirs; the daemon says so once.
func softLimit(env string, stderr io.Writer) func(int64) {
	if env != "" {
		fmt.Fprintf(stderr, "onepassd: GOMEMLIMIT=%s is set: the soft memory limit is left to it\n", env)
		return nil
	}
	return func(n int64) { debug.SetMemoryLimit(n) }
}

// buildSchedConfig validates the scheduler flags; a nil config means
// the job API is off (-jobs-dir unset).
func buildSchedConfig(dir string, maxConcurrent, maxQueued int) (*sched.Config, error) {
	if dir == "" {
		return nil, nil
	}
	if maxConcurrent <= 0 {
		return nil, fmt.Errorf("bad -jobs-max-concurrent %d (want > 0)", maxConcurrent)
	}
	if maxQueued <= 0 {
		return nil, fmt.Errorf("bad -jobs-max-queued %d (want > 0)", maxQueued)
	}
	return &sched.Config{
		Dir:           dir,
		DefaultLimits: sched.Limits{MaxConcurrent: maxConcurrent, MaxQueued: maxQueued},
	}, nil
}

// buildConfig validates the flag values (errors name the offending
// flag) and assembles the service configuration.
func buildConfig(addr, dir, query string, sealBytes, ckptEvery int64, drain time.Duration, addrFile string) (ingest.Config, serve.Options, error) {
	var cfg ingest.Config
	var opts serve.Options
	if dir == "" {
		return cfg, opts, fmt.Errorf("missing -wal-dir (want a directory for the WAL and checkpoints)")
	}
	if _, _, err := net.SplitHostPort(addr); err != nil {
		return cfg, opts, fmt.Errorf("bad -addr %q (want host:port): %v", addr, err)
	}
	factory, validate, err := ingest.StandardQuery(query)
	if err != nil {
		return cfg, opts, fmt.Errorf("bad -query %q (want sessionization|clickcount|frequsers|pagefreq|trigram)", query)
	}
	if sealBytes <= 0 {
		return cfg, opts, fmt.Errorf("bad -seal-bytes %d (want > 0)", sealBytes)
	}
	if ckptEvery == 0 {
		return cfg, opts, fmt.Errorf("bad -checkpoint-every 0 (want > 0, or < 0 to disable checkpointing)")
	}
	if drain <= 0 {
		return cfg, opts, fmt.Errorf("bad -drain-timeout %v (want > 0)", drain)
	}
	cfg = ingest.Config{
		Dir:             dir,
		QueryName:       query,
		NewQuery:        factory,
		Validate:        validate,
		SealBytes:       sealBytes,
		CheckpointEvery: ckptEvery,
	}
	opts = serve.Options{Addr: addr, AddrFile: addrFile, DrainTimeout: drain}
	return cfg, opts, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "onepassd:", err)
	os.Exit(1)
}
