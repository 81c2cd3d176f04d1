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
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"time"

	"repro/internal/ingest"
	"repro/internal/sched"
	"repro/internal/serve"
)

func main() {
	var (
		addrFlag     = flag.String("addr", "127.0.0.1:8080", "listen address (host:port)")
		dirFlag      = flag.String("wal-dir", "", "WAL + checkpoint directory (required; created if absent)")
		queryFlag    = flag.String("query", "clickcount", "query: sessionization|clickcount|frequsers|pagefreq|trigram")
		sealFlag     = flag.Int64("seal-bytes", 64<<20, "seal the open WAL segment once it reaches this many bytes")
		ckptFlag     = flag.Int64("checkpoint-every", 256, "checkpoint after every Nth folded batch (negative disables)")
		inflightFlag = flag.Int64("max-inflight-bytes", 64<<20, "shed load (429) beyond this many accepted-but-unfolded bytes")
		drainFlag    = flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown budget on SIGTERM")
		addrFileFlag = flag.String("addr-file", "", "write the bound listen address to this file (for :0 ports)")

		jobsDirFlag    = flag.String("jobs-dir", "", "job-store directory: serve the /v1/jobs scheduler API (created if absent)")
		jobsConcFlag   = flag.Int("jobs-max-concurrent", 2, "default per-org concurrent-run limit")
		jobsQueuedFlag = flag.Int("jobs-max-queued", 64, "default per-org queued-run limit before shedding 429s")
	)
	flag.Parse()

	cfg, opts, err := buildConfig(*addrFlag, *dirFlag, *queryFlag, *sealFlag, *ckptFlag, *inflightFlag, *drainFlag, *addrFileFlag)
	if err != nil {
		fatal(err)
	}
	schedCfg, err := buildSchedConfig(*jobsDirFlag, *jobsConcFlag, *jobsQueuedFlag)
	if err != nil {
		fatal(err)
	}
	ing, err := ingest.Open(cfg)
	if err != nil {
		fatal(err)
	}
	r := ing.Recovery
	fmt.Fprintf(os.Stderr, "onepassd: %s on %s: restored checkpoint seq=%d, replayed %d batches (%d bytes), torn tails truncated: %d\n",
		cfg.QueryName, cfg.Dir, r.RestoredSeq, r.ReplayedBatches, r.RecoveryReadBytes, r.TornTailsTruncated)
	if schedCfg != nil {
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
func buildConfig(addr, dir, query string, sealBytes, ckptEvery, inflight int64, drain time.Duration, addrFile string) (ingest.Config, serve.Options, error) {
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
	if inflight <= 0 {
		return cfg, opts, fmt.Errorf("bad -max-inflight-bytes %d (want > 0)", inflight)
	}
	if drain <= 0 {
		return cfg, opts, fmt.Errorf("bad -drain-timeout %v (want > 0)", drain)
	}
	cfg = ingest.Config{
		Dir:              dir,
		QueryName:        query,
		NewQuery:         factory,
		Validate:         validate,
		SealBytes:        sealBytes,
		CheckpointEvery:  ckptEvery,
		MaxInflightBytes: inflight,
	}
	opts = serve.Options{Addr: addr, AddrFile: addrFile, DrainTimeout: drain}
	return cfg, opts, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "onepassd:", err)
	os.Exit(1)
}
